"""REFERENCE row pipeline: record-at-a-time workload construction and
aggregation, kept verbatim.

The shipped package builds workloads columnar-ly
(:func:`repro.experiments.runner.make_workload_table`) and aggregates
with one numpy pass (:func:`repro.metrics.collector.summarize`); both
must stay *float-identical* to the straightforward implementations
frozen here, which ``tests/properties/test_prop_columnar_equivalence.py``
and ``tests/metrics/test_summarize_columnar.py`` compare against.

Do not optimize this file: its value is being the slow, obviously-correct
oracle.
"""

from __future__ import annotations

import math

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    _ESTIMATE_SEED_OFFSET,
    _generator_for,
    make_estimate_model,
)
from repro.metrics.categories import Category, EstimateQuality
from repro.metrics.collector import CompletedJob, MetricSummary, RunMetrics
from repro.workload.estimates import ExactEstimate
from repro.workload.job import Workload
from repro.workload.transforms import apply_estimates, scale_load

__all__ = ["make_workload_rows", "summarize_rows"]


def make_workload_rows(spec: WorkloadSpec) -> Workload:
    """Row-at-a-time :func:`make_workload` (the reference implementation).

    Rebuilds ``Job`` objects per transform instead of deriving columns.
    """
    workload = _generator_for(spec.trace).generate(spec.n_jobs, seed=spec.seed)
    if spec.load_scale != 1.0:
        workload = scale_load(workload, spec.load_scale)
    model = make_estimate_model(spec)
    if not isinstance(model, ExactEstimate):
        workload = apply_estimates(
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
