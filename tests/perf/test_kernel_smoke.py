"""Perf smoke test: the kernel's work on one deep-queue cell, as counts.

Runs one overloaded CTC cell (user estimates at load scale 0.4: deep
queues, every completion early, so the conservative repack — the
kernel's hottest path — runs at full depth) with a counting ``Profile``
subclass behind the ``profile_factory`` seam and pins how much work each
of the four replanning disciplines asked of the kernel.  The regressions a throughput floor would
catch on a quiet host show up here on any host: a rebuild done by
sequential reserves is a non-zero ``reserve`` count, a re-plan per event
instead of per early completion is more ``rebuild_into`` / ``claim_many``
calls, a claim loop that stopped batching is more ``claim`` calls, and a
profile that stopped coalescing is a larger peak breakpoint count.
Wall-clock belongs to the ``deep_queue_repack`` workload of
``benchmarks/e2e``; this runs on every push (``-m perf``).
"""

from collections import Counter

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_workload
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.priority.policies import SJFPriority
from repro.sched.profile import Profile
from repro.sim.engine import simulate

JOBS = 600


def counting_profile(counts: Counter) -> type[Profile]:
    """A ``Profile`` subclass that tallies its public calls into ``counts``."""

    class CountingProfile(Profile):
        def _placed(self, placements: int) -> None:
            counts["placements"] += placements
            counts["peak_breakpoints"] = max(
                counts["peak_breakpoints"], len(self.breakpoints())
            )

        def claim(self, procs, duration, earliest):
            start = super().claim(procs, duration, earliest)
            counts["claim"] += 1
            self._placed(1)
            return start

        def claim_many(self, procs, durations, earliest):
            starts = super().claim_many(procs, durations, earliest)
            counts["claim_many"] += 1
            self._placed(len(starts))
            return starts

        def rebuild_into(self, now, running):
            counts["rebuild_into"] += 1
            super().rebuild_into(now, running)

        def reserve(self, procs, start, duration):
            counts["reserve"] += 1
            super().reserve(procs, start, duration)

        def min_free_many(self, durations, now):
            counts["min_free_many"] += 1
            return super().min_free_many(durations, now)

        def min_free(self, start, duration):
            counts["min_free"] += 1
            return super().min_free(start, duration)

    return CountingProfile


def kernel_work(scheduler) -> Counter:
    """Kernel calls ``scheduler`` makes over the deep-queue cell."""
    counts: Counter = Counter()
    scheduler.profile_factory = counting_profile(counts)
    workload = make_workload(WorkloadSpec("CTC", JOBS, 1, 0.4, "user"))
    result = simulate(workload, scheduler)
    assert len(result.completed) == JOBS
    counts["events"] = result.events_processed
    return counts


@pytest.mark.perf
def test_conservative_repack_work_counts():
    counts = kernel_work(ConservativeScheduler())
    # One scalar claim per arrival; every completion is early, so one
    # repack (one rebuild + one batch) per finish and never more.
    assert counts["claim"] == JOBS
    assert counts["rebuild_into"] == JOBS
    assert counts["claim_many"] == JOBS
    assert counts["placements"] == 27_408
    assert counts["events"] == 1_660
    # The bulk rebuild is one endpoint sweep, not one reserve per running job.
    assert counts["reserve"] == 0
    # 81 at this commit; the simulator's profiles stay under 100 breakpoints.
    assert counts["peak_breakpoints"] < 100


@pytest.mark.perf
@pytest.mark.parametrize(
    "scheduler, expected",
    [
        # Selective and depth re-plan on every arrival and every finish
        # that finds a queue: one rebuild + one batch claim per pass, one
        # min_free_many prefilter per pass with an unreserved job, and a
        # scalar min_free only after a same-pass reserve dirtied the plan.
        pytest.param(
            SelectiveScheduler(xfactor_threshold=2.0),
            dict(rebuild_into=1_164, claim_many=1_164, placements=26_682,
                 min_free_many=1_094, min_free=104, reserve=392),
            id="sel-fcfs-2.0",
        ),
        pytest.param(
            DepthScheduler(SJFPriority(), depth=4),
            dict(rebuild_into=1_174, claim_many=1_174, placements=4_256,
                 min_free_many=982, min_free=35, reserve=161),
            id="depth-sjf-k4",
        ),
        # Slack re-plans the whole queue once per arrival guarantee, once
        # per phase-1 round and once per admission trial.
        pytest.param(
            SlackScheduler(slack_factor=1.0),
            dict(rebuild_into=2_634, claim_many=2_634, placements=102_775,
                 min_free_many=0, min_free=0, reserve=0),
            id="slack-fcfs-1.0",
        ),
    ],
)
def test_replanning_work_counts(scheduler, expected):
    counts = kernel_work(scheduler)
    assert {name: counts[name] for name in expected} == expected
    # No replanning discipline places a job outside a batch.
    assert counts["claim"] == 0
    assert counts["events"] == 2 * JOBS
