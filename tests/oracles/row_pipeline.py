"""REFERENCE row pipeline: record-at-a-time SWF ingest, workload
transforms, workload construction and aggregation, kept verbatim.

The shipped package reads SWF straight into columns
(:func:`repro.workload.swf.read_swf_table`), derives workloads with
``JobTable`` array operations (:mod:`repro.workload.transforms`,
:func:`repro.experiments.runner.make_workload_table`) and aggregates with
one numpy pass (:func:`repro.metrics.collector.summarize`); all of it must
stay *float-identical* to the straightforward implementations frozen
here, which ``tests/workload/test_swf_columnar.py``,
``tests/properties/test_prop_swf_ingest.py``,
``tests/properties/test_prop_columnar_equivalence.py`` and
``tests/metrics/test_summarize_columnar.py`` compare against.  Not a
parity case: this reader skips a ``nan`` submit or runtime and lets
``Job`` reject an infinite one, where the shipped reader refuses any
non-finite field with an ``SWFFormatError`` naming the line.

Do not optimize this file: its value is being the slow, obviously-correct
oracle.
"""

from __future__ import annotations

import math
import os
from typing import TextIO

import numpy as np

from repro.errors import ConfigurationError, SWFFormatError
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    _ESTIMATE_SEED_OFFSET,
    _generator_for,
    make_estimate_model,
)
from repro.metrics.categories import Category, EstimateQuality
from repro.metrics.collector import CompletedJob, MetricSummary, RunMetrics
from repro.workload.estimates import EstimateModel, ExactEstimate
from repro.workload.job import Job, Workload
from repro.workload.swf import SWFHeader

from tests.oracles.row_builders import generate_rows

__all__ = [
    "read_swf_rows", "scale_load_rows", "apply_estimates_rows", "truncate_rows",
    "make_workload_rows", "summarize_rows",
]

_N_FIELDS = 18


# -- SWF ingest: the line-at-a-time reader ------------------------------------


def _parse_line(line: str, *, line_number: int | None = None) -> list[float]:
    """Split one SWF data line into 18 floats, padding missing fields with -1."""
    parts = line.split()
    if not parts:
        raise SWFFormatError("empty data line", line_number=line_number)
    if len(parts) > _N_FIELDS:
        raise SWFFormatError(
            f"expected at most {_N_FIELDS} fields, got {len(parts)}",
            line_number=line_number,
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SWFFormatError(f"non-numeric field: {exc}", line_number=line_number) from exc
    values.extend([-1.0] * (_N_FIELDS - len(values)))
    return values


def _job_from_fields(values: list[float]) -> Job | None:
    """Convert one parsed SWF record to a Job, or None if unusable."""
    job_id = int(values[0])
    submit = values[1]
    runtime = values[3]
    allocated = int(values[4])
    requested_procs = int(values[7])
    requested_time = values[8]

    procs = requested_procs if requested_procs > 0 else allocated
    if procs <= 0 or runtime <= 0 or submit < 0 or job_id < 0:
        return None
    estimate = requested_time if requested_time > 0 else runtime

    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=estimate,
        procs=procs,
        avg_cpu_time=values[5],
        used_memory=values[6],
        requested_memory=values[9],
        status=int(values[10]),
        user_id=int(values[11]),
        group_id=int(values[12]),
        executable=int(values[13]),
        queue=int(values[14]),
        partition=int(values[15]),
        preceding_job=int(values[16]),
        think_time=values[17],
    )


def _read_stream(
    stream: TextIO, max_jobs: int | None
) -> tuple[list[Job], SWFHeader, int]:
    header = SWFHeader()
    jobs: list[Job] = []
    skipped = 0
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key = key.strip()
                value = value.strip()
                if key and " " not in key:
                    header.set(key, value)
                    continue
            header.comments.append(body)
            continue
        values = _parse_line(line, line_number=line_number)
        job = _job_from_fields(values)
        if job is None:
            skipped += 1
            continue
        jobs.append(job)
        if max_jobs is not None and len(jobs) >= max_jobs:
            break
    return jobs, header, skipped


def read_swf_rows(
    source: str | os.PathLike | TextIO,
    *,
    max_procs: int | None = None,
    name: str | None = None,
    max_jobs: int | None = None,
) -> Workload:
    """Line-at-a-time :func:`repro.workload.swf.read_swf`."""
    if hasattr(source, "read"):
        default_name = str(getattr(source, "name", "swf"))
        jobs, header, skipped = _read_stream(source, max_jobs)
    else:
        default_name = os.path.splitext(os.path.basename(os.fspath(source)))[0]
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            jobs, header, skipped = _read_stream(fh, max_jobs)

    procs = max_procs if max_procs is not None else header.max_procs
    if procs is None:
        if not jobs:
            raise SWFFormatError("no MaxProcs header and no jobs to infer size from")
        procs = max(job.procs for job in jobs)
    # Clamp requests wider than the machine (some archive logs contain them).
    usable = [job for job in jobs if job.procs <= procs]
    skipped += len(jobs) - len(usable)
    return Workload.from_jobs(
        usable,
        max_procs=procs,
        name=name or str(default_name),
        metadata={"skipped": skipped, "swf_header": dict(header.fields)},
    )


# -- transforms: one Job rebuilt per job per step ------------------------------


def scale_load_rows(workload: Workload, factor: float, *, name: str | None = None) -> Workload:
    """Row-at-a-time :func:`repro.workload.transforms.scale_load`."""
    if factor <= 0:
        raise ConfigurationError(f"load scale factor must be > 0, got {factor}")
    if len(workload) == 0:
        return workload

    origin = workload.jobs[0].submit_time
    jobs = [
        job.with_submit_time(origin + (job.submit_time - origin) * factor)
        for job in workload.jobs
    ]
    meta = dict(workload.metadata)
    meta["load_scale_factor"] = meta.get("load_scale_factor", 1.0) * factor
    return Workload(
        tuple(jobs),
        workload.max_procs,
        name if name is not None else f"{workload.name}-x{1.0 / factor:.2f}load",
        meta,
    )


def _apply_estimate(model: EstimateModel, job: Job, rng: np.random.Generator) -> Job:
    """Return a copy of ``job`` with ``model``'s estimate attached."""
    return job.with_estimate(model.estimate_for(job, rng))


def apply_estimates_rows(
    workload: Workload,
    model: EstimateModel,
    *,
    seed: int | np.random.Generator = 0,
    name: str | None = None,
) -> Workload:
    """Row-at-a-time :func:`repro.workload.transforms.apply_estimates`."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    jobs = tuple(_apply_estimate(model, job, rng) for job in workload.jobs)
    meta = dict(workload.metadata)
    meta["estimate_model"] = repr(model)
    return Workload(
        jobs,
        workload.max_procs,
        name if name is not None else workload.name,
        meta,
    )


def truncate_rows(
    workload: Workload,
    *,
    max_jobs: int | None = None,
    skip: int = 0,
    name: str | None = None,
) -> Workload:
    """Row-at-a-time :func:`repro.workload.transforms.truncate`."""
    if skip < 0:
        raise ConfigurationError(f"skip must be >= 0, got {skip}")
    if max_jobs is not None and max_jobs < 0:
        raise ConfigurationError(f"max_jobs must be >= 0, got {max_jobs}")
    jobs = workload.jobs[skip:]
    if max_jobs is not None:
        jobs = jobs[:max_jobs]
    return Workload(
        jobs,
        workload.max_procs,
        name if name is not None else workload.name,
        dict(workload.metadata),
    )


# -- construction and aggregation ----------------------------------------------


def make_workload_rows(spec: WorkloadSpec) -> Workload:
    """Row-at-a-time :func:`make_workload` (the reference implementation).

    Generates with the frozen row generator and rebuilds ``Job`` objects
    per transform instead of deriving columns.
    """
    workload = generate_rows(
        _generator_for(spec.trace), spec.n_jobs, seed=spec.seed
    )
    if spec.load_scale != 1.0:
        workload = scale_load_rows(workload, spec.load_scale)
    model = make_estimate_model(spec)
    if not isinstance(model, ExactEstimate):
        workload = apply_estimates_rows(
            workload, model, seed=spec.seed + _ESTIMATE_SEED_OFFSET
        )
    return workload


def summarize_rows(
    records: list[CompletedJob] | tuple[CompletedJob, ...],
    *,
    utilization: float = math.nan,
    makespan: float | None = None,
) -> RunMetrics:
    """Record-at-a-time :func:`summarize` (the reference implementation).

    Each record's metric chain (wait / turnaround / bounded slowdown) is
    evaluated exactly once, then the values are regrouped for the overall,
    per-category and per-quality summaries.
    """
    records = tuple(records)
    slowdowns = [r.bounded_slowdown for r in records]
    turnarounds = [r.turnaround for r in records]
    waits = [r.wait for r in records]
    by_category: dict[Category, list[int]] = {c: [] for c in Category}
    by_quality: dict[EstimateQuality, list[int]] = {q: [] for q in EstimateQuality}
    for i, record in enumerate(records):
        by_category[record.category].append(i)
        by_quality[record.estimate_quality].append(i)

    def _group(indices: list[int]) -> MetricSummary:
        return MetricSummary.from_values(
            [slowdowns[i] for i in indices],
            [turnarounds[i] for i in indices],
            [waits[i] for i in indices],
        )

    span = 0.0
    if records:
        span = max(r.finish_time for r in records) - min(
            r.job.submit_time for r in records
        )
    return RunMetrics(
        overall=MetricSummary.from_values(slowdowns, turnarounds, waits),
        by_category={c: _group(v) for c, v in by_category.items()},
        by_estimate_quality={q: _group(v) for q, v in by_quality.items()},
        utilization=utilization,
        makespan=makespan if makespan is not None else span,
        records=records,
    )
