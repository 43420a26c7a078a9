"""REFERENCE object-path decoder of the stored record columns, kept verbatim.

The result store keeps a run's completed-job records as two base64
buffers of typed columns (:func:`repro.exec.serialize.metrics_to_columns`).
The shipped decoder keeps them as columns: it validates them once into a
``RecordTable``, folds the aggregates straight from its arrays, and
builds the ``Job`` / ``CompletedJob`` objects only when ``.records`` is
first read.  This file freezes the decoder it replaced, which validated
the same columns and then built one ``Job`` and one ``CompletedJob`` per
record, only for ``summarize`` to pull six of those columns back out in
a Python loop:

* :func:`metrics_from_payload_objects` — that decoder, with its buffer
  decoding and its column form of ``CompletedJob.__post_init__``
  (:func:`check_record_columns`);
* :func:`summarize_objects` — ``summarize`` as it was, extraction loop
  and fold together.

:func:`record_builds` counts the objects a block of code builds through
the trusted constructors, so tests can assert that a path builds none.

``tests/properties/test_prop_store_codec.py`` compares the shipped
decoder against this one.  Do not optimize this file: its value is being
the straightforward, obviously-correct oracle.
"""

from __future__ import annotations

import base64
import math
from contextlib import contextmanager

import numpy as np

from repro.errors import SimulationError
from repro.metrics.categories import category_masks, quality_masks
from repro.metrics.collector import (
    FINISH_ABS_TOL,
    FINISH_REL_TOL,
    START_TOL,
    CompletedJob,
    MetricSummary,
    RunMetrics,
)
from repro.metrics.defs import BOUNDED_SLOWDOWN_THRESHOLD
from repro.workload.job import Job
from repro.workload.table import FLOAT_COLUMNS, INT_COLUMNS, check_job_columns

_JOB_FIELDS = (
    "job_id",
    "submit_time",
    "runtime",
    "estimate",
    "procs",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "status",
    "avg_cpu_time",
    "used_memory",
    "requested_memory",
    "preceding_job",
    "think_time",
)

_FLOAT_ROWS = ("start_time", "finish_time", *FLOAT_COLUMNS)

_INT_DTYPE = np.dtype("<i8")
_FLOAT_DTYPE = np.dtype("<f8")


@contextmanager
def record_builds():
    """Count the ``Job``s and ``CompletedJob``s built inside the block.

    Wraps the two trusted constructors every record materialization goes
    through; yields ``{Job: count, CompletedJob: count}``, live.
    """
    counts = {Job: 0, CompletedJob: 0}
    build_jobs = Job.__dict__["_from_trusted_columns"]
    build_record = CompletedJob.__dict__["_trusted"]

    def jobs(cls, field_lists):
        built = build_jobs.__func__(cls, field_lists)
        counts[Job] += len(built)
        return built

    def record(cls, job, start_time, finish_time):
        counts[CompletedJob] += 1
        return build_record.__func__(cls, job, start_time, finish_time)

    Job._from_trusted_columns = classmethod(jobs)
    CompletedJob._trusted = classmethod(record)
    try:
        yield counts
    finally:
        Job._from_trusted_columns = build_jobs
        CompletedJob._trusted = build_record


def _decode(text: str, dtype: np.dtype, n: int, width: int) -> np.ndarray:
    array = np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)
    if array.size != width * n:
        raise ValueError(f"buffer holds {array.size} values, expected {width} x {n}")
    return array.reshape(width, n)


def check_record_columns(
    job_id: np.ndarray,
    submit: np.ndarray,
    effective_runtime: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
) -> None:
    """Every ``CompletedJob.__post_init__`` check, vectorized."""
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


def metrics_from_payload_objects(payload: dict) -> RunMetrics:
    """Decode ``metrics_to_columns`` output by building every record."""
    n = payload["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"record count must be an int >= 0, got {n!r}")
    ints = _decode(payload["ints"], _INT_DTYPE, n, len(INT_COLUMNS))
    floats = _decode(payload["floats"], _FLOAT_DTYPE, n, len(_FLOAT_ROWS))
    columns = dict(zip(INT_COLUMNS, ints))
    columns.update(zip(_FLOAT_ROWS, floats))
    check_job_columns(columns)
    check_record_columns(
        columns["job_id"],
        columns["submit_time"],
        np.minimum(columns["runtime"], columns["estimate"]),
        columns["start_time"],
        columns["finish_time"],
    )
    jobs = Job._from_trusted_columns(
        [columns[name].tolist() for name in _JOB_FIELDS]
    )
    records = tuple(
        map(
            CompletedJob._trusted,
            jobs,
            columns["start_time"].tolist(),
            columns["finish_time"].tolist(),
        )
    )
    return summarize_objects(
        records,
        utilization=payload["utilization"],
        makespan=payload["makespan"],
    )


def summarize_objects(
    records, *, utilization: float = math.nan, makespan: float | None = None
) -> RunMetrics:
    """Aggregate completed-job records into a :class:`RunMetrics`."""
    records = tuple(records)
    submit_l: list[float] = []
    start_l: list[float] = []
    finish_l: list[float] = []
    runtime_l: list[float] = []
    estimate_l: list[float] = []
    procs_l: list[int] = []
    for r in records:
        job = r.job
        submit_l.append(job.submit_time)
        start_l.append(r.start_time)
        finish_l.append(r.finish_time)
        runtime_l.append(job.runtime)
        estimate_l.append(job.estimate)
        procs_l.append(job.procs)
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
