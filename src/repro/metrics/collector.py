"""Per-run metric records and aggregation.

The simulator produces one :class:`CompletedJob` per job; :func:`summarize`
rolls a set of them into a :class:`RunMetrics` with the aggregates the paper
reports: average bounded slowdown, average turnaround time, and worst-case
turnaround time — overall, per shape category, and per estimate-quality
class.

The aggregation is columnar: :func:`summarize` pulls the record fields
into numpy arrays once, computes every per-job metric and the
category/quality masks with array operations, and aggregates each group
with sequential summation, which keeps it float-identical to the
record-at-a-time reference in ``tests/oracles/row_pipeline.py`` that the
differential suite compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.metrics.categories import (
    Category,
    EstimateQuality,
    categorize,
    category_masks,
    estimate_quality,
    quality_masks,
)
from repro.metrics.defs import (
    BOUNDED_SLOWDOWN_THRESHOLD,
    bounded_slowdown,
    turnaround_time,
    wait_time,
)
from repro.workload.job import Job

__all__ = [
    "CompletedJob",
    "check_record_columns",
    "MetricSummary",
    "RunMetrics",
    "summarize",
]


#: Tolerances of the completed-record checks.  They are metric-side float
#: tolerances on recorded times, not scheduling rules (those are in
#: ``repro.sched.tol``).  :meth:`CompletedJob.__post_init__` and its
#: column form :func:`check_record_columns` both read these names, so
#: the row check and the column check cannot drift apart.
#:
#: A start may precede its job's submission by this much.
START_TOL = 1e-9
#: ``math.isclose`` tolerances of a finish against start + effective runtime.
FINISH_REL_TOL = 1e-9
FINISH_ABS_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class CompletedJob:
    """The scheduling outcome of a single job."""

    job: Job
    start_time: float
    finish_time: float

    def __post_init__(self) -> None:
        if self.start_time < self.job.submit_time - START_TOL:
            raise SimulationError(
                f"job {self.job.job_id} started at {self.start_time} before "
                f"its submission at {self.job.submit_time}"
            )
        expected_finish = self.start_time + self.job.effective_runtime
        if not math.isclose(
            self.finish_time,
            expected_finish,
            rel_tol=FINISH_REL_TOL,
            abs_tol=FINISH_ABS_TOL,
        ):
            raise SimulationError(
                f"job {self.job.job_id} ran {self.finish_time - self.start_time}s, "
                f"expected {self.job.effective_runtime}s"
            )

    @classmethod
    def _trusted(
        cls,
        job: Job,
        start_time: float,
        finish_time: float,
        _new=object.__new__,
        _set_job=None,
        _set_start=None,
        _set_finish=None,
    ) -> "CompletedJob":
        """Engine-internal constructor, skipping ``__post_init__``.

        For records the simulator's event loop builds itself: the start
        time is the clock at allocation (>= the arrival batch, hence >=
        submission) and the finish time is the very value the engine
        pushed as ``start + effective_runtime``, so both checks hold by
        construction and re-running them per completion only taxes the
        hot loop.  Externally assembled records must use the validated
        constructor.  Writes go through the slot member descriptors
        (bound below, once the class exists) — same trick as
        ``Job._from_trusted_columns``: frozen only overrides
        ``__setattr__``, and the pre-bound ``__set__`` skips the
        per-call attribute-name lookup.
        """
        record = _new(cls)
        _set_job(record, job)
        _set_start(record, start_time)
        _set_finish(record, finish_time)
        return record

    @property
    def wait(self) -> float:
        return wait_time(self.job.submit_time, self.start_time)

    @property
    def turnaround(self) -> float:
        return turnaround_time(self.job.submit_time, self.finish_time)

    @property
    def bounded_slowdown(self) -> float:
        return bounded_slowdown(self.job.submit_time, self.start_time, self.finish_time)

    @property
    def category(self) -> Category:
        return categorize(self.job)

    @property
    def estimate_quality(self) -> EstimateQuality:
        return estimate_quality(self.job)


# The slot member descriptors only exist once the class object does, so
# ``_trusted``'s setter defaults are bound here rather than inline.
CompletedJob._trusted.__func__.__defaults__ = (
    object.__new__,
    CompletedJob.__dict__["job"].__set__,
    CompletedJob.__dict__["start_time"].__set__,
    CompletedJob.__dict__["finish_time"].__set__,
)


def check_record_columns(
    job_id: np.ndarray,
    submit: np.ndarray,
    effective_runtime: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
) -> None:
    """Every :meth:`CompletedJob.__post_init__` check, vectorized.

    Raises the row check's :class:`~repro.errors.SimulationError` for the
    first offending record.  ``math.isclose`` is spelled out elementwise
    as CPython computes it (equal values are close, an infinite value is
    close only to itself, NaN to nothing), because ``np.isclose`` is an
    asymmetric test with other tolerances.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        early = start < submit - START_TOL
        expected = start + effective_runtime
        diff = np.abs(expected - finish)
        close = (finish == expected) | (
            np.isfinite(finish)
            & np.isfinite(expected)
            & (
                (diff <= np.abs(FINISH_REL_TOL * expected))
                | (diff <= np.abs(FINISH_REL_TOL * finish))
                | (diff <= FINISH_ABS_TOL)
            )
        )
    bad = early | ~close
    if bad.any():
        i = int(np.argmax(bad))
        if early[i]:
            raise SimulationError(
                f"job {job_id[i]} started at {start[i]} before "
                f"its submission at {submit[i]}"
            )
        raise SimulationError(
            f"job {job_id[i]} ran {finish[i] - start[i]}s, "
            f"expected {effective_runtime[i]}s"
        )


@dataclass(frozen=True, slots=True)
class MetricSummary:
    """Aggregates over one group of completed jobs."""

    count: int
    mean_bounded_slowdown: float
    mean_turnaround: float
    mean_wait: float
    max_turnaround: float
    max_bounded_slowdown: float

    @classmethod
    def empty(cls) -> "MetricSummary":
        return cls(0, math.nan, math.nan, math.nan, math.nan, math.nan)

    @classmethod
    def of(cls, records: list[CompletedJob]) -> "MetricSummary":
        slowdowns = [r.bounded_slowdown for r in records]
        turnarounds = [r.turnaround for r in records]
        waits = [r.wait for r in records]
        return cls.from_values(slowdowns, turnarounds, waits)

    @classmethod
    def from_values(
        cls,
        slowdowns: list[float],
        turnarounds: list[float],
        waits: list[float],
    ) -> "MetricSummary":
        """Aggregate pre-computed per-job metric values.

        This is the single aggregation point for both summarize paths, so
        each record's metric chain is computed once per run and then reused
        across the overall / per-category / per-quality groups.  Sums are
        sequential (Python ``sum``) in record order in both paths, keeping
        the means bit-identical between them.
        """
        if not slowdowns:
            return cls.empty()
        n = len(slowdowns)
        return cls(
            count=n,
            mean_bounded_slowdown=sum(slowdowns) / n,
            mean_turnaround=sum(turnarounds) / n,
            mean_wait=sum(waits) / n,
            max_turnaround=max(turnarounds),
            max_bounded_slowdown=max(slowdowns),
        )


@dataclass(frozen=True)
class RunMetrics:
    """Full metric breakdown of one simulation run."""

    overall: MetricSummary
    by_category: dict[Category, MetricSummary]
    by_estimate_quality: dict[EstimateQuality, MetricSummary]
    utilization: float
    makespan: float
    records: tuple[CompletedJob, ...] = field(repr=False)

    def category_summary(self, category: Category | str) -> MetricSummary:
        return self.by_category[Category(category)]

    def quality_summary(self, quality: EstimateQuality | str) -> MetricSummary:
        return self.by_estimate_quality[EstimateQuality(quality)]

    def record_for(self, job_id: int) -> CompletedJob:
        # Lazy job-id index: the first lookup builds a dict so sweeps that
        # probe many jobs pay O(n) once instead of an O(n) scan per call.
        # First-match-wins, like the scan this replaces.
        index = self.__dict__.get("_job_index")
        if index is None:
            index = {}
            for record in self.records:
                index.setdefault(record.job.job_id, record)
            object.__setattr__(self, "_job_index", index)
        try:
            return index[job_id]
        except KeyError:
            raise KeyError(f"no completed record for job {job_id}") from None


def summarize(
    records: list[CompletedJob] | tuple[CompletedJob, ...],
    *,
    utilization: float = math.nan,
    makespan: float | None = None,
) -> RunMetrics:
    """Aggregate completed-job records into a :class:`RunMetrics`.

    One numpy pass over the record fields.  Float-identical to the
    record-at-a-time reference: the per-job metrics are the same
    elementwise IEEE operations, the category/quality masks preserve
    record order, and group aggregation goes through the same sequential
    ``sum`` (numpy's pairwise ``np.sum`` would round differently).
    """
    records = tuple(records)
    # One pass over the records instead of six: each column used to be
    # its own ``np.fromiter`` over a generator, which re-resumed a
    # generator frame and re-read ``r.job`` per element per column.
    # The values are the same Python floats either way, so the arrays
    # (and everything derived from them) stay bit-identical.
    submit_l: list[float] = []
    start_l: list[float] = []
    finish_l: list[float] = []
    runtime_l: list[float] = []
    estimate_l: list[float] = []
    procs_l: list[int] = []
    a_submit = submit_l.append
    a_start = start_l.append
    a_finish = finish_l.append
    a_runtime = runtime_l.append
    a_estimate = estimate_l.append
    a_procs = procs_l.append
    for r in records:
        job = r.job
        a_submit(job.submit_time)
        a_start(r.start_time)
        a_finish(r.finish_time)
        a_runtime(job.runtime)
        a_estimate(job.estimate)
        a_procs(job.procs)
    submit = np.array(submit_l, np.float64)
    start = np.array(start_l, np.float64)
    finish = np.array(finish_l, np.float64)
    runtime = np.array(runtime_l, np.float64)
    estimate = np.array(estimate_l, np.float64)
    procs = np.array(procs_l, np.int64)

    waits = np.maximum(start - submit, 0.0)
    turnarounds = np.maximum(finish - submit, 0.0)
    elapsed = np.maximum(finish - start, 0.0)
    denom = np.maximum(elapsed, BOUNDED_SLOWDOWN_THRESHOLD)
    slowdowns = (waits + denom) / denom

    def _group(mask: np.ndarray) -> MetricSummary:
        return MetricSummary.from_values(
            slowdowns[mask].tolist(),
            turnarounds[mask].tolist(),
            waits[mask].tolist(),
        )

    span = float(finish.max()) - float(submit.min()) if records else 0.0
    return RunMetrics(
        overall=MetricSummary.from_values(
            slowdowns.tolist(), turnarounds.tolist(), waits.tolist()
        ),
        by_category={
            c: _group(mask) for c, mask in category_masks(runtime, procs).items()
        },
        by_estimate_quality={
            q: _group(mask) for q, mask in quality_masks(estimate, runtime).items()
        },
        utilization=utilization,
        makespan=makespan if makespan is not None else span,
        records=records,
    )
