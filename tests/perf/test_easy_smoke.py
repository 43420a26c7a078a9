"""Perf smoke test: the EASY pass's work on one contended cell, as counts.

Runs one CTC cell (2,000 jobs, seed 1, load scale 0.75, user estimates)
under EASY with XFactor and with SJF and pins what a pass may not redo:

* full re-sorts of the dynamic priority order, counted through the
  ``sorted`` that ``repro.sched.priority.policies`` resolves as a module
  global (``PriorityPolicy.sort``'s only sort), patched with a counter;
* ``Job.__eq__`` calls over the run, counted by a wrapper patched onto
  the class — queued jobs leave by identity, so this is zero;
* ``events_processed`` and a hash of the ``(job_id, start_time)``
  schedule, which the incremental pass must leave unchanged.

Before the EASY pass kept its order between events, XF re-sorted once per
pass (4,000 sorts here) and dequeues made 20,603 ``Job.__eq__`` calls
(2,000 under SJF).  Wall-clock belongs to the ``swf_replay`` workload of
``benchmarks/e2e``; this runs on every push (``-m perf``).
"""

import hashlib

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_workload
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.priority import policies
from repro.sched.priority.policies import SJFPriority, XFactorPriority
from repro.sim.engine import simulate
from repro.workload.job import Job

JOBS = 2_000


@pytest.mark.perf
@pytest.mark.parametrize(
    "priority, sorts, schedule_hash",
    [
        # Two queued jobs' XF keys cross at most once, but some pair in the
        # queue crosses on about a quarter of the passes.
        (XFactorPriority, 989, "e2f8f8a7e2514b8c"),
        # Static keys: the queue is kept sorted at insertion, never sorted.
        (SJFPriority, 0, "830e10a8f7ec410f"),
    ],
    ids=["xf", "sjf"],
)
def test_easy_pass_work_counts(monkeypatch, priority, sorts, schedule_hash):
    counts = {"sorts": 0, "eq": 0}

    def counting_sorted(*args, **kwargs):
        counts["sorts"] += 1
        return sorted(*args, **kwargs)

    eq = Job.__eq__

    def counting_eq(self, other):
        counts["eq"] += 1
        return eq(self, other)

    workload = make_workload(WorkloadSpec("CTC", JOBS, 1, 0.75, "user"))
    monkeypatch.setattr(policies, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(Job, "__eq__", counting_eq)
    result = simulate(workload, EasyScheduler(priority()))
    monkeypatch.undo()

    schedule = repr(sorted(result.start_times().items())).encode()
    assert hashlib.sha256(schedule).hexdigest()[:16] == schedule_hash
    assert result.events_processed == 2 * JOBS
    assert counts == {"sorts": sorts, "eq": 0}
