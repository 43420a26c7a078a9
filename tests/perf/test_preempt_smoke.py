"""Perf smoke test: the preemptive engine's bookkeeping on one cell, as counts.

Runs one CTC cell (600 jobs, seed 1, load scale 0.75, user estimates)
under selective suspension (FCFS, suspension factor 2) and pins what a
decision round may not redo:

* ``RunningView`` constructions, counted through a wrapper patched onto
  the name ``repro.preempt.engine`` resolves: one per start or resume
  (600 starts + 318 resumes).  When the engine rebuilt every running
  job's view on every decision round, this cell built 37,567;
* ``decide`` calls and suspensions, which the bookkeeping must leave
  unchanged;
* the mean bounded slowdown and worst turnaround, by ``repr``.

Wall-clock belongs to the ``extension_engines`` workload of
``benchmarks/e2e``; this runs on every push (``-m perf``).
"""

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_workload
from repro.preempt import engine
from repro.preempt.scheduler import SelectiveSuspensionScheduler

JOBS = 600


@pytest.mark.perf
def test_preemptive_engine_work_counts(monkeypatch):
    counts = {"views": 0, "decide": 0}
    view = engine.RunningView

    def counting_view(*args, **kwargs):
        counts["views"] += 1
        return view(*args, **kwargs)

    scheduler = SelectiveSuspensionScheduler(suspension_factor=2.0)
    decide = scheduler.decide

    def counting_decide(*args, **kwargs):
        counts["decide"] += 1
        return decide(*args, **kwargs)

    workload = make_workload(WorkloadSpec("CTC", JOBS, 1, 0.75, "user"))
    monkeypatch.setattr(engine, "RunningView", counting_view)
    monkeypatch.setattr(scheduler, "decide", counting_decide)
    result = engine.PreemptiveSimulator(workload, scheduler).run()
    monkeypatch.undo()

    assert result.total_suspensions == 318
    assert counts == {"views": JOBS + 318, "decide": 3_717}
    overall = result.metrics.overall
    assert repr(overall.mean_bounded_slowdown) == "42.64883849702156"
    assert repr(overall.max_turnaround) == "247135.66399744677"
