"""Serialization of :class:`~repro.metrics.collector.RunMetrics`.

A run has two serialized forms:

* the **row form** (:func:`metrics_to_payload`), one JSON list per
  completed job: what :func:`metrics_digest` hashes, so every golden
  digest pins its bytes.  Nothing reads it back.
* the **stored form** (:func:`metrics_to_columns`), one little-endian
  byte string the result store persists as a BLOB.
  :func:`metrics_from_payload` is its one decoder.  In order:

  - a header of three eight-byte words: ``n`` (int64), utilization and
    makespan (float64);
  - the run's seven :class:`~repro.metrics.collector.MetricSummary`
    groups — overall, the four shape categories, the two estimate
    qualities, in enum order — as seven int64 counts, then seven rows
    of five float64s (the fields after ``count``, in field order);
  - the records as two column buffers, field-major: int64 for the nine
    integer ``Job`` fields, then float64 for start, finish and the seven
    float ``Job`` fields.

The buffers are the records' own IEEE-754 doubles and 64-bit integers,
and the groups are the live run's own floats, so a run decoded from
disk equals the one produced live by construction, and a warm rerun is
byte-identical to a cold one.  The aggregates are stored rather than
re-folded from the records because the fold was most of a warm read:
decoding is now a fixed-size header unpack plus ``np.frombuffer``
views, with no text and no per-group sum.  The price is that the stored
groups are only as right as the fold that wrote them, so a change to
:func:`~repro.metrics.collector.summarize` must bump
:data:`~repro.exec.cell.CACHE_SCHEMA_VERSION`; a guard test pins the
fold's output next to the version.

Every check on a stored entry still runs, before anything is built: the
buffer length against ``n``, the group counts against ``n`` (the
overall count equals it, the category counts and the quality counts
each sum to it), and the columns' :class:`~repro.metrics.collector.RecordTable`
validation — every check ``Job.__post_init__`` and
``CompletedJob.__post_init__`` make, vectorized with the same
tolerances.  The decoded run keeps the table: its ``Job`` and
``CompletedJob`` objects are built only if something reads
``.records``.  Both encoders read a table-backed run's columns
directly, so hashing or re-storing a decoded run builds no record
either.  Any failure raises, which the store treats as a corrupt entry
(drop and re-simulate).
"""

from __future__ import annotations

import hashlib
import json
import struct
from operator import attrgetter

import numpy as np

from repro.metrics.categories import Category, EstimateQuality
from repro.metrics.collector import MetricSummary, RecordTable, RunMetrics
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

_CATEGORIES = tuple(Category)
_QUALITIES = tuple(EstimateQuality)
_GROUPS = 1 + len(_CATEGORIES) + len(_QUALITIES)

#: A :class:`MetricSummary`'s fields after ``count``, in field order.
_SUMMARY_VALUES = attrgetter(
    "mean_bounded_slowdown",
    "mean_turnaround",
    "mean_wait",
    "max_turnaround",
    "max_bounded_slowdown",
)
_VALUES_PER_GROUP = 5

#: ``n``, utilization, makespan; the group counts; the group values.
_HEAD = struct.Struct(f"<qdd{_GROUPS}q{_GROUPS * _VALUES_PER_GROUP}d")

#: Stored bytes per record: one eight-byte word per column.
_RECORD_BYTES = 8 * (len(INT_COLUMNS) + len(_FLOAT_ROWS))

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


def metrics_to_columns(metrics: RunMetrics) -> bytes:
    """The stored form of a :class:`RunMetrics` (see the module docstring).

    Raises ``ValueError`` for a run whose aggregates do not cover its
    records (a streaming run keeps only its watched records): its stored
    groups would fail the decoder's count checks.
    """
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
    if metrics.overall.count != n:
        raise ValueError(
            f"run summarizes {metrics.overall.count} jobs but holds {n} records"
        )
    groups = (
        metrics.overall,
        *(metrics.by_category[c] for c in _CATEGORIES),
        *(metrics.by_estimate_quality[q] for q in _QUALITIES),
    )
    values = [value for group in groups for value in _SUMMARY_VALUES(group)]
    head = _HEAD.pack(
        n,
        metrics.utilization,
        metrics.makespan,
        *(group.count for group in groups),
        *values,
    )
    return b"".join((head, ints.tobytes(), floats.tobytes()))


def _summary(count: int, values: tuple) -> MetricSummary:
    # A group with no job decodes to the very object the fold returns
    # for one, NaN identity included, so ``RunMetrics ==`` holds.
    return MetricSummary(count, *values) if count else MetricSummary.empty()


def metrics_from_payload(blob: bytes) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from :func:`metrics_to_columns` output.

    The run keeps the decoded :class:`RecordTable` and takes its
    aggregates from the stored groups (see the module docstring).
    Raises (``TypeError``/``ValueError``/``repro.errors.ReproError``) on
    malformed bytes, before building anything; callers treat any
    failure as a corrupt cache entry.
    """
    if type(blob) is not bytes:
        raise TypeError(f"stored metrics must be bytes, got {type(blob).__name__}")
    if len(blob) < _HEAD.size:
        raise ValueError(f"stored metrics hold {len(blob)} bytes, under the header")
    n, utilization, makespan, *head = _HEAD.unpack_from(blob)
    if n < 0 or len(blob) != _HEAD.size + _RECORD_BYTES * n:
        raise ValueError(f"stored metrics hold {len(blob)} bytes, not {n} records")
    counts = head[:_GROUPS]
    categories = counts[1 : 1 + len(_CATEGORIES)]
    qualities = counts[1 + len(_CATEGORIES) :]
    if min(counts) < 0 or counts[0] != n or sum(categories) != n or sum(qualities) != n:
        raise ValueError(f"stored group counts {counts} do not cover {n} records")
    width = len(INT_COLUMNS)
    ints = np.frombuffer(blob, _INT_DTYPE, width * n, _HEAD.size).reshape(width, n)
    floats = np.frombuffer(
        blob, _FLOAT_DTYPE, len(_FLOAT_ROWS) * n, _HEAD.size + 8 * width * n
    ).reshape(len(_FLOAT_ROWS), n)
    table = RecordTable({**dict(zip(INT_COLUMNS, ints)), **dict(zip(_FLOAT_ROWS, floats))})
    values = head[_GROUPS:]
    summaries = [
        _summary(count, values[i * _VALUES_PER_GROUP : (i + 1) * _VALUES_PER_GROUP])
        for i, count in enumerate(counts)
    ]
    return RunMetrics(
        overall=summaries[0],
        by_category=dict(zip(_CATEGORIES, summaries[1 : 1 + len(_CATEGORIES)])),
        by_estimate_quality=dict(zip(_QUALITIES, summaries[1 + len(_CATEGORIES) :])),
        utilization=utilization,
        makespan=makespan,
        records=table,
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
