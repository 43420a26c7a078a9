"""Outcome records for preemptive schedules.

A preempted job executes in one or more disjoint intervals; the record
keeps all of them so metrics (and tests) can reason about suspension
counts and suspended time, while the paper's headline metrics (bounded
slowdown, turnaround) fall out of the first start and the final finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.metrics.categories import Category, categorize
from repro.metrics.collector import (
    FINISH_ABS_TOL,
    FINISH_REL_TOL,
    RunMetrics,
    summarize_groups,
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

    The per-job metrics are the records' own (:attr:`PreemptedJob.wait`,
    ``turnaround`` and ``bounded_slowdown``, in column form); the groups
    are the collector's (:func:`~repro.metrics.collector.summarize_groups`).
    The ``records`` tuple of the returned object is empty (the preemptive
    records do not satisfy the non-preemptive CompletedJob invariants) —
    callers needing the raw records keep the list they passed in.
    """
    submit, runtime, estimate, first_start, finish = np.array(
        [(r.job.submit_time, r.job.runtime, r.job.estimate, r.first_start, r.finish_time)
         for r in records],
        np.float64,
    ).reshape(-1, 5).T
    procs = np.array([r.job.procs for r in records], np.int64)
    turnarounds = finish - submit
    effective = np.minimum(runtime, estimate)
    denom = np.maximum(effective, BOUNDED_SLOWDOWN_THRESHOLD)
    slowdowns = (turnarounds - effective + denom) / denom
    overall, by_category, by_quality = summarize_groups(
        slowdowns, turnarounds, first_start - submit, runtime, estimate, procs
    )
    makespan = float(finish.max()) - float(submit.min()) if len(procs) else 0.0
    return RunMetrics(
        overall=overall,
        by_category=by_category,
        by_estimate_quality=by_quality,
        utilization=utilization,
        makespan=makespan,
        records=(),
    )
