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

Decoding builds no object per record.  The buffers become one
:class:`~repro.metrics.collector.RecordTable`, whose construction
validates them once, in columns — every check ``Job.__post_init__`` and
``CompletedJob.__post_init__`` make, vectorized with the same
tolerances; the buffer lengths are checked here.  ``summarize`` folds
the table's arrays in place, and the run it returns keeps the table:
its ``Job`` and ``CompletedJob`` objects are built only if something
reads ``.records``.  Both encoders read a table-backed run's columns
directly, so hashing or re-storing a decoded run builds no record
either.  Any failure raises, which the store treats as a corrupt entry
(drop and re-simulate).
"""

from __future__ import annotations

import base64
import hashlib
import json
from operator import attrgetter

import numpy as np

from repro.metrics.collector import RecordTable, RunMetrics, summarize
from repro.workload.table import FLOAT_COLUMNS, INT_COLUMNS, JOB_FIELDS

__all__ = [
    "metrics_to_payload",
    "metrics_to_columns",
    "metrics_from_payload",
    "canonical_json",
    "metrics_digest",
]

#: Column order of a row-form record: its times, then every ``Job`` field.
_ROW_FIELDS = ("start_time", "finish_time", *JOB_FIELDS)

#: Rows of the stored float buffer: the record's times, then the Job's.
_FLOAT_ROWS = ("start_time", "finish_time", *FLOAT_COLUMNS)

_INT_DTYPE = np.dtype("<i8")
_FLOAT_DTYPE = np.dtype("<f8")

_job_row = attrgetter(*JOB_FIELDS)
_job_ints = attrgetter(*INT_COLUMNS)
_job_floats = attrgetter(*FLOAT_COLUMNS)


def metrics_to_payload(metrics: RunMetrics) -> dict:
    """Reduce a :class:`RunMetrics` to the JSON-safe row form."""
    if metrics.table is None:
        rows = [[r.start_time, r.finish_time, *_job_row(r.job)] for r in metrics.records]
    else:
        columns = metrics.table.columns
        rows = list(map(list, zip(*[columns[name].tolist() for name in _ROW_FIELDS])))
    return {
        "utilization": metrics.utilization,
        "makespan": metrics.makespan,
        "columns": list(_ROW_FIELDS),
        "records": rows,
    }


def _encode(array: np.ndarray) -> str:
    """The bytes of a ``width`` x ``n`` (field-major) ``array``, base64."""
    return base64.b64encode(array.tobytes()).decode("ascii")


def _decode(text: str, dtype: np.dtype, n: int, width: int) -> np.ndarray:
    """The ``width`` x ``n`` array :func:`_encode` wrote; raises on any
    length mismatch."""
    array = np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)
    if array.size != width * n:
        raise ValueError(f"buffer holds {array.size} values, expected {width} x {n}")
    return array.reshape(width, n)


def metrics_to_columns(metrics: RunMetrics) -> dict:
    """The stored form of a :class:`RunMetrics` (see the module docstring)."""
    if metrics.table is None:
        records = metrics.records
        n = len(records)
        ints = np.array([_job_ints(r.job) for r in records], _INT_DTYPE)
        floats = np.array(
            [(r.start_time, r.finish_time, *_job_floats(r.job)) for r in records],
            _FLOAT_DTYPE,
        )
        ints = ints.reshape(n, len(INT_COLUMNS)).T
        floats = floats.reshape(n, len(_FLOAT_ROWS)).T
    else:
        columns = metrics.table.columns
        n = len(metrics.table)
        ints = np.array([columns[name] for name in INT_COLUMNS], _INT_DTYPE)
        floats = np.array([columns[name] for name in _FLOAT_ROWS], _FLOAT_DTYPE)
    return {
        "n": n,
        "utilization": metrics.utilization,
        "makespan": metrics.makespan,
        "ints": _encode(ints),
        "floats": _encode(floats),
    }


def metrics_from_payload(payload: dict) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from :func:`metrics_to_columns` output.

    The run keeps the decoded :class:`RecordTable` (see the module
    docstring).  Raises (``KeyError``/``TypeError``/``ValueError``/
    ``repro.errors.ReproError``) on malformed payloads, before building
    anything; callers treat any failure as a corrupt cache entry.
    """
    n = payload["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"record count must be an int >= 0, got {n!r}")
    ints = _decode(payload["ints"], _INT_DTYPE, n, len(INT_COLUMNS))
    floats = _decode(payload["floats"], _FLOAT_DTYPE, n, len(_FLOAT_ROWS))
    table = RecordTable({**dict(zip(INT_COLUMNS, ints)), **dict(zip(_FLOAT_ROWS, floats))})
    return summarize(
        table,
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
