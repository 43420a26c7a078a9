"""Per-run metric records and aggregation.

The simulator produces one :class:`CompletedJob` per job; :func:`summarize`
rolls a set of them into a :class:`RunMetrics` with the aggregates the paper
reports: average bounded slowdown, average turnaround time, and worst-case
turnaround time — overall, per shape category, and per estimate-quality
class.

A run read back from the result store is a :class:`RecordTable` instead,
the same records as validated columns; its :class:`RunMetrics` keeps the
table and builds the record objects only when ``.records`` is read.

The aggregation is columnar either way: one fold computes every per-job
metric and the category/quality masks with array operations over six
columns (pulled out of the records in one pass, or the table's own) and
aggregates each group with sequential summation, which keeps it
float-identical to the record-at-a-time reference in
``tests/oracles/row_pipeline.py`` that the differential suite compares
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

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
    FINISH_ABS_TOL,
    FINISH_REL_TOL,
    START_TOL,
    bounded_slowdown,
    bounded_slowdowns,
    turnaround_time,
    wait_time,
)
from repro.workload.job import Job
from repro.workload.table import INT_COLUMNS, JOB_FIELDS, check_job_columns

__all__ = [
    "CompletedJob",
    "RecordTable",
    "MetricSummary",
    "RunMetrics",
    "summarize",
    "summarize_groups",
]


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
        """Internal constructor, skipping ``__post_init__``.

        For records the simulator's event loop builds itself (the start
        is the clock at allocation, >= submission; the finish is the value
        the engine pushed as ``start + effective_runtime``) and for a
        :class:`RecordTable`'s, which its construction checked in columns.
        Externally assembled records must use the validated constructor.
        Writes go through the slot member descriptors (bound below, once
        the class exists), as in ``Job._from_trusted_columns``.
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


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Completed records as columns: ``JobTable``'s sixteen plus
    ``start_time`` and ``finish_time``, one numpy array each.

    Construction runs every ``Job.__post_init__`` check
    (:func:`~repro.workload.table.check_job_columns`) and every
    :meth:`CompletedJob.__post_init__` check, vectorized with the same
    tolerances, raising the row check's error for the first bad record;
    that licenses :meth:`records`' trusted constructors.  ``math.isclose``
    is spelled out as CPython computes it (equal values are close, an
    infinity only to itself, NaN to nothing): ``np.isclose`` differs.
    """

    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        columns = self.columns
        check_job_columns(columns)
        job_id, submit = columns["job_id"], columns["submit_time"]
        start, finish = columns["start_time"], columns["finish_time"]
        effective_runtime = np.minimum(columns["runtime"], columns["estimate"])
        with np.errstate(over="ignore", invalid="ignore"):
            early = start < submit - START_TOL
            expected = start + effective_runtime
            scale = np.maximum(np.abs(expected), np.abs(finish))
            tol = np.maximum(FINISH_REL_TOL * scale, FINISH_ABS_TOL)
            finite = np.isfinite(finish) & np.isfinite(expected)
            close = (finish == expected) | (finite & (np.abs(expected - finish) <= tol))
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

    def __len__(self) -> int:
        return len(self.columns["job_id"])

    def records(self) -> tuple[CompletedJob, ...]:
        """One ``Job`` and one ``CompletedJob`` per row, in row order."""
        columns = self.columns
        jobs = Job._from_trusted_columns([columns[name].tolist() for name in JOB_FIELDS])
        starts, finishes = columns["start_time"].tolist(), columns["finish_time"].tolist()
        return tuple(map(CompletedJob._trusted, jobs, starts, finishes))


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
    """Full metric breakdown of one simulation run.

    ``records`` may be passed as a :class:`RecordTable` (a stored run).
    The run keeps it as ``table`` and builds the record tuple on the
    first read of ``records``; ``==``, ``repr`` and pickling treat the
    two forms alike.
    """

    overall: MetricSummary
    by_category: dict[Category, MetricSummary]
    by_estimate_quality: dict[EstimateQuality, MetricSummary]
    utilization: float
    makespan: float
    records: tuple[CompletedJob, ...] = field(repr=False)
    #: The columns of a table-backed run; None for one summarized from records.
    table: ClassVar[RecordTable | None] = None

    def __post_init__(self) -> None:
        if isinstance(self.records, RecordTable):
            object.__setattr__(self, "table", self.records)
            object.__delattr__(self, "records")

    def __getattr__(self, name: str):
        # Ordinary lookup failed: only ``records`` of a table-backed run
        # that nothing has read yet is missing on purpose.
        if name != "records" or self.table is None:
            raise AttributeError(name)
        records = self.table.records()
        object.__setattr__(self, "records", records)
        return records

    def category_summary(self, category: Category | str) -> MetricSummary:
        return self.by_category[Category(category)]

    def quality_summary(self, quality: EstimateQuality | str) -> MetricSummary:
        return self.by_estimate_quality[EstimateQuality(quality)]

    def record_columns(self, *names: str) -> list[np.ndarray]:
        """The named :class:`RecordTable` columns of this run, in record
        order: a table-backed run's own arrays (no record is built), or
        arrays pulled from the records."""
        if self.table is not None:
            return [self.table.columns[name] for name in names]
        return [
            np.array(
                [getattr(r if name in _RECORD_TIMES else r.job, name) for r in self.records],
                np.int64 if name in INT_COLUMNS else np.float64,
            )
            for name in names
        ]

    def start_times(self) -> dict[int, float]:
        """job_id -> start time, the schedule itself; the last record of a
        repeated id wins.  Built once and cached, as the equivalence suites
        ask for it per comparison; a table-backed run builds no record."""
        cached = self.__dict__.get("_start_times")
        if cached is None:
            job_id, start = self.record_columns("job_id", "start_time")
            cached = dict(zip(job_id.tolist(), start.tolist()))
            object.__setattr__(self, "_start_times", cached)
        return cached

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
    records: list[CompletedJob] | tuple[CompletedJob, ...] | RecordTable,
    *,
    utilization: float = math.nan,
    makespan: float | None = None,
) -> RunMetrics:
    """Aggregate completed records into a :class:`RunMetrics`.

    ``records`` is the engines' record objects, whose six metric fields
    are pulled into arrays in one pass, or a stored run's
    :class:`RecordTable`, whose columns go to :func:`_fold` as they are
    and which the returned run keeps in place of the objects.
    """
    if isinstance(records, RecordTable):
        columns = records.columns
        arrays = [columns[name] for name in _FOLD_COLUMNS]
        return _fold(*arrays, records, utilization, makespan)
    records = tuple(records)
    # One pass with bound appends; np.array of the same Python values
    # gives bit-identical arrays to any other extraction.
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
    floats = [
        np.array(values, np.float64)
        for values in (submit_l, start_l, finish_l, runtime_l, estimate_l)
    ]
    return _fold(*floats, np.array(procs_l, np.int64), records, utilization, makespan)


#: The columns a record holds itself; the rest are its job's fields.
_RECORD_TIMES = ("start_time", "finish_time")

#: The record columns :func:`_fold` takes, in its parameter order.
_FOLD_COLUMNS = ("submit_time", "start_time", "finish_time", "runtime", "estimate", "procs")


def _fold(submit, start, finish, runtime, estimate, procs, records, utilization, makespan):
    """The :class:`RunMetrics` of six record columns (float64, ``procs``
    int64): the per-job metrics as elementwise IEEE operations, then
    :func:`summarize_groups`."""
    waits = np.maximum(start - submit, 0.0)
    turnarounds = np.maximum(finish - submit, 0.0)
    slowdowns = bounded_slowdowns(submit, start, finish)
    overall, by_category, by_quality = summarize_groups(
        slowdowns, turnarounds, waits, runtime, estimate, procs
    )
    span = float(finish.max()) - float(submit.min()) if len(submit) else 0.0
    return RunMetrics(
        overall=overall,
        by_category=by_category,
        by_estimate_quality=by_quality,
        utilization=utilization,
        makespan=makespan if makespan is not None else span,
        records=records,
    )


def summarize_groups(slowdowns, turnarounds, waits, runtime, estimate, procs) -> tuple:
    """``(overall, by_category, by_estimate_quality)`` summaries of per-job
    metric arrays, classified by the jobs' ``runtime``, ``estimate`` and
    ``procs``.  The masks keep record order and each group is a sequential
    ``sum`` (numpy's pairwise ``np.sum`` would round differently)."""

    def _group(mask) -> MetricSummary:
        return MetricSummary.from_values(
            slowdowns[mask].tolist(), turnarounds[mask].tolist(), waits[mask].tolist()
        )

    return (
        _group(slice(None)),  # every job
        {c: _group(mask) for c, mask in category_masks(runtime, procs).items()},
        {q: _group(mask) for q, mask in quality_masks(estimate, runtime).items()},
    )
