"""Outcome records for preemptive schedules.

A preempted job executes in one or more disjoint intervals; the record
keeps all of them so metrics (and tests) can reason about suspension
counts and suspended time, while the paper's headline metrics (bounded
slowdown, turnaround) fall out of the first start and the final finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.metrics.categories import Category, categorize
from repro.metrics.collector import (
    FINISH_ABS_TOL,
    FINISH_REL_TOL,
    MetricSummary,
    RunMetrics,
)
from repro.metrics.defs import BOUNDED_SLOWDOWN_THRESHOLD
from repro.sched.tol import EPS_SNAP
from repro.workload.job import Job

__all__ = ["PreemptedJob", "summarize_preemptive"]


@dataclass(frozen=True)
class PreemptedJob:
    """One job's full execution history under a preemptive scheduler.

    ``overhead_per_suspension`` is the wall-clock cost each suspension
    added to the job's execution (state save/restore); the executed time
    must equal ``effective_runtime + n_suspensions x overhead``.
    """

    job: Job
    intervals: tuple[tuple[float, float], ...]
    overhead_per_suspension: float = 0.0

    def __post_init__(self) -> None:
        if not self.intervals:
            raise SimulationError(f"job {self.job.job_id}: no execution intervals")
        if self.overhead_per_suspension < 0:
            raise SimulationError(
                f"job {self.job.job_id}: negative suspension overhead"
            )
        previous_end = -math.inf
        for start, end in self.intervals:
            if end <= start:
                raise SimulationError(
                    f"job {self.job.job_id}: empty interval [{start}, {end})"
                )
            if start < previous_end:
                raise SimulationError(
                    f"job {self.job.job_id}: overlapping intervals at {start}"
                )
            previous_end = end
        if self.intervals[0][0] < self.job.submit_time - EPS_SNAP:
            raise SimulationError(
                f"job {self.job.job_id}: started before submission"
            )
        executed = sum(end - start for start, end in self.intervals)
        expected = (
            self.job.effective_runtime
            + self.n_suspensions * self.overhead_per_suspension
        )
        if not math.isclose(
            executed, expected, rel_tol=FINISH_REL_TOL, abs_tol=FINISH_ABS_TOL
        ):
            raise SimulationError(
                f"job {self.job.job_id}: executed {executed}s, expected "
                f"{expected}s"
            )

    @property
    def first_start(self) -> float:
        return self.intervals[0][0]

    @property
    def finish_time(self) -> float:
        return self.intervals[-1][1]

    @property
    def wait(self) -> float:
        """Time before the first start (suspended time is counted
        separately, not as queue wait)."""
        return self.first_start - self.job.submit_time

    @property
    def suspended_time(self) -> float:
        """Total time spent suspended between intervals."""
        gaps = 0.0
        for (_, end_a), (start_b, _) in zip(self.intervals, self.intervals[1:]):
            gaps += start_b - end_a
        return gaps

    @property
    def n_suspensions(self) -> int:
        return len(self.intervals) - 1

    @property
    def turnaround(self) -> float:
        return self.finish_time - self.job.submit_time

    @property
    def bounded_slowdown(self) -> float:
        """(turnaround - runtime + max(runtime, T)) / max(runtime, T).

        Equivalent to the paper's definition with "wait" generalized to
        all non-running time (queue wait + suspended time).
        """
        runtime = self.job.effective_runtime
        denominator = max(runtime, BOUNDED_SLOWDOWN_THRESHOLD)
        non_running = self.turnaround - runtime
        return (non_running + denominator) / denominator

    @property
    def category(self) -> Category:
        return categorize(self.job)


def summarize_preemptive(
    records: list[PreemptedJob] | tuple[PreemptedJob, ...],
    *,
    utilization: float = math.nan,
) -> RunMetrics:
    """Aggregate preemptive records into the standard RunMetrics shape.

    The per-category and estimate-quality breakdowns reuse the
    non-preemptive classifiers; the ``records`` tuple of the returned
    object is empty (the preemptive records do not satisfy the
    non-preemptive CompletedJob invariants) — callers needing the raw
    records keep the list they passed in.
    """
    records = list(records)

    def summary(group: list[PreemptedJob]) -> MetricSummary:
        if not group:
            return MetricSummary.empty()
        slowdowns = [r.bounded_slowdown for r in group]
        turnarounds = [r.turnaround for r in group]
        waits = [r.wait for r in group]
        return MetricSummary(
            count=len(group),
            mean_bounded_slowdown=sum(slowdowns) / len(group),
            mean_turnaround=sum(turnarounds) / len(group),
            mean_wait=sum(waits) / len(group),
            max_turnaround=max(turnarounds),
            max_bounded_slowdown=max(slowdowns),
        )

    by_category = {
        category: summary([r for r in records if r.category is category])
        for category in Category
    }
    from repro.metrics.categories import EstimateQuality, estimate_quality

    by_quality = {
        quality: summary(
            [r for r in records if estimate_quality(r.job) is quality]
        )
        for quality in EstimateQuality
    }
    makespan = 0.0
    if records:
        makespan = max(r.finish_time for r in records) - min(
            r.job.submit_time for r in records
        )
    return RunMetrics(
        overall=summary(records),
        by_category=by_category,
        by_estimate_quality=by_quality,
        utilization=utilization,
        makespan=makespan,
        records=(),
    )
