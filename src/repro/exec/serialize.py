"""Serialization of :class:`~repro.metrics.collector.RunMetrics`.

A run has two serialized forms:

* the **row form** (:func:`metrics_to_payload`), one JSON list per
  completed job: what :func:`metrics_digest` hashes, so every golden
  digest pins its bytes.  Nothing reads it back.
* the **stored form** (:func:`metrics_to_columns`), which the result
  store persists: ``n``, utilization, makespan, and the records as two
  base64 buffers of little-endian columns, field-major — int64 for the
  nine integer ``Job`` fields, float64 for start, finish and the seven
  float ``Job`` fields.  :func:`metrics_from_payload` is its one decoder.

Only the irreducible facts of a run are stored; every aggregate is
rebuilt by :func:`repro.metrics.collector.summarize`, a pure function of
the records, so a run decoded from disk is float-for-float the one
produced live and warm reruns are byte-identical to cold ones.  The
stored form is exact by construction: the buffers are the records' own
IEEE-754 doubles and 64-bit integers, with no text round trip.

Decoding validates once, in columns — every check ``Job.__post_init__``
and ``CompletedJob.__post_init__`` make, vectorized with the same
tolerances, plus the buffer lengths — and only then builds the records,
through the trusted constructors.  Any failure raises, which the store
treats as a corrupt entry (drop and re-simulate).
"""

from __future__ import annotations

import base64
import hashlib
import json
from operator import attrgetter

import numpy as np

from repro.metrics.collector import (
    CompletedJob,
    RunMetrics,
    check_record_columns,
    summarize,
)
from repro.workload.job import Job
from repro.workload.table import FLOAT_COLUMNS, INT_COLUMNS, check_job_columns

__all__ = [
    "metrics_to_payload",
    "metrics_to_columns",
    "metrics_from_payload",
    "canonical_json",
    "metrics_digest",
]

#: Fixed column order of a serialized job; prepended by the record's
#: start and finish times.  Must cover every ``Job`` field.
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

#: Rows of the stored float buffer: the record's times, then the Job's.
_FLOAT_ROWS = ("start_time", "finish_time", *FLOAT_COLUMNS)

_INT_DTYPE = np.dtype("<i8")
_FLOAT_DTYPE = np.dtype("<f8")

_job_ints = attrgetter(*INT_COLUMNS)
_job_floats = attrgetter(*FLOAT_COLUMNS)


def metrics_to_payload(metrics: RunMetrics) -> dict:
    """Reduce a :class:`RunMetrics` to the JSON-safe row form."""
    rows = [
        [record.start_time, record.finish_time]
        + [getattr(record.job, name) for name in _JOB_FIELDS]
        for record in metrics.records
    ]
    return {
        "utilization": metrics.utilization,
        "makespan": metrics.makespan,
        "columns": ["start_time", "finish_time", *_JOB_FIELDS],
        "records": rows,
    }


def _encode(rows: list, dtype: np.dtype, width: int) -> str:
    """Field-major little-endian bytes of ``rows`` (n tuples), base64."""
    array = np.array(rows, dtype=dtype).reshape(len(rows), width)
    return base64.b64encode(array.T.tobytes()).decode("ascii")


def _decode(text: str, dtype: np.dtype, n: int, width: int) -> np.ndarray:
    """The ``width`` x ``n`` array :func:`_encode` wrote; raises on any
    length mismatch."""
    array = np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)
    if array.size != width * n:
        raise ValueError(f"buffer holds {array.size} values, expected {width} x {n}")
    return array.reshape(width, n)


def metrics_to_columns(metrics: RunMetrics) -> dict:
    """The stored form of a :class:`RunMetrics` (see the module docstring)."""
    records = metrics.records
    ints = [_job_ints(record.job) for record in records]
    floats = [
        (record.start_time, record.finish_time, *_job_floats(record.job))
        for record in records
    ]
    return {
        "n": len(records),
        "utilization": metrics.utilization,
        "makespan": metrics.makespan,
        "ints": _encode(ints, _INT_DTYPE, len(INT_COLUMNS)),
        "floats": _encode(floats, _FLOAT_DTYPE, len(_FLOAT_ROWS)),
    }


def metrics_from_payload(payload: dict) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from :func:`metrics_to_columns` output.

    Validates the columns before building any record and raises
    (``KeyError``/``TypeError``/``ValueError``/``repro.errors.ReproError``)
    on malformed payloads; callers treat any failure as a corrupt cache
    entry.
    """
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
    return summarize(
        records,
        utilization=payload["utilization"],
        makespan=payload["makespan"],
    )


def canonical_json(payload: dict) -> str:
    """Deterministic JSON text for hashing/equality of payloads."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def metrics_digest(metrics: RunMetrics) -> str:
    """sha256 of the canonical row form of a metrics object.

    Two metrics objects with identical observable content have identical
    digests even when they contain NaN fields (which defeat ``==``), so
    tests use this to assert exact parallel-vs-serial equality.
    """
    text = canonical_json(metrics_to_payload(metrics))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
