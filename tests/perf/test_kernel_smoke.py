"""Perf smoke test: the kernel's work on one deep-queue cell, as counts.

Runs one overloaded CTC cell (user estimates at load scale 0.4: deep
queues, every completion early, so the conservative repack — the
kernel's hottest path — runs at full depth) with a counting ``Profile``
subclass behind the ``profile_factory`` seam and pins how much work the
scheduler asked of the kernel.  The regressions a throughput floor would
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

    return CountingProfile


@pytest.mark.perf
def test_conservative_repack_work_counts():
    counts: Counter = Counter()
    scheduler = ConservativeScheduler()
    scheduler.profile_factory = counting_profile(counts)
    workload = make_workload(WorkloadSpec("CTC", JOBS, 1, 0.4, "user"))
    result = simulate(workload, scheduler)
    assert len(result.completed) == JOBS
    # One scalar claim per arrival; every completion is early, so one
    # repack (one rebuild + one batch) per finish and never more.
    assert counts["claim"] == JOBS
    assert counts["rebuild_into"] == JOBS
    assert counts["claim_many"] == JOBS
    assert counts["placements"] == 27_408
    assert result.events_processed == 1_660
    # The bulk rebuild is one endpoint sweep, not one reserve per running job.
    assert counts["reserve"] == 0
    # 81 at this commit; the simulator's profiles stay under 100 breakpoints.
    assert counts["peak_breakpoints"] < 100
