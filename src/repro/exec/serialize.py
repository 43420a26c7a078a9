"""JSON serialization of :class:`~repro.metrics.collector.RunMetrics`.

The persisted form stores only the irreducible facts of a run — the
completed-job records (with their full job descriptions), utilization and
makespan — and rebuilds every aggregate through
:func:`repro.metrics.collector.summarize` on load.  Because ``summarize``
is a pure function of the records, a metrics object reconstructed from
disk is float-for-float identical to the one produced live, which is what
makes warm-cache reruns byte-identical to cold runs.

Floats round-trip exactly: Python's ``json`` emits ``repr``-style
shortest representations and parses them back to the same IEEE-754
values (NaN included, via the non-strict ``allow_nan`` default).
"""

from __future__ import annotations

import hashlib
import json

from repro.metrics.collector import CompletedJob, RunMetrics, summarize
from repro.workload.job import Job

__all__ = [
    "metrics_to_payload",
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


def metrics_to_payload(metrics: RunMetrics) -> dict:
    """Reduce a :class:`RunMetrics` to a JSON-safe dict."""
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


def metrics_from_payload(payload: dict) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from :func:`metrics_to_payload` output.

    Raises ``KeyError``/``TypeError``/``repro.errors.ReproError`` on
    malformed payloads; callers treat any failure as a corrupt cache
    entry.
    """
    expected_columns = ["start_time", "finish_time", *_JOB_FIELDS]
    if payload["columns"] != expected_columns:
        raise ValueError(
            f"unexpected record columns {payload['columns']!r}"
        )
    records = [
        CompletedJob(
            job=Job(**dict(zip(_JOB_FIELDS, row[2:], strict=True))),
            start_time=row[0],
            finish_time=row[1],
        )
        for row in payload["records"]
    ]
    return summarize(
        records,
        utilization=payload["utilization"],
        makespan=payload["makespan"],
    )


def canonical_json(payload: dict) -> str:
    """Deterministic JSON text for hashing/equality of payloads."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def metrics_digest(metrics: RunMetrics) -> str:
    """sha256 of the canonical serialized form of a metrics object.

    Two metrics objects with identical observable content have identical
    digests even when they contain NaN fields (which defeat ``==``), so
    tests use this to assert exact parallel-vs-serial equality.
    """
    text = canonical_json(metrics_to_payload(metrics))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
