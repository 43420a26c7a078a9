"""Vectorized summarize, the lazy record index, and once-per-record
metric computation."""

import math

import numpy as np
import pytest

from repro.metrics.categories import (
    Category,
    EstimateQuality,
    categorize,
    category_masks,
    estimate_quality,
    quality_masks,
)
from repro.metrics.collector import CompletedJob, MetricSummary, summarize
from repro.workload.job import Job

from tests.oracles.row_pipeline import summarize_rows


def _record(job_id, submit, start, runtime, procs=2, estimate=None):
    job = Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime,
        procs=procs,
    )
    return CompletedJob(job, start, start + job.effective_runtime)


def _mixed_records():
    # Spans all four shape categories and both estimate qualities.
    return [
        _record(1, 0.0, 5.0, 100.0, procs=1),                  # SN well
        _record(2, 10.0, 10.0, 200.0, procs=16, estimate=900.0),  # SW poor
        _record(3, 20.0, 400.0, 4000.0, procs=4),              # LN well
        _record(4, 30.0, 800.0, 7200.0, procs=32, estimate=86400.0),  # LW poor
        _record(5, 40.0, 40.0, 3.0, procs=1),                  # SN, sub-threshold runtime
    ]


class TestSummarizeParity:
    def test_rows_and_columns_identical(self):
        records = _mixed_records()
        assert summarize_rows(records) == summarize(records)

    def test_category_and_quality_membership(self):
        metrics = summarize(_mixed_records())
        assert metrics.by_category[Category.SN].count == 2
        assert metrics.by_category[Category.SW].count == 1
        assert metrics.by_category[Category.LN].count == 1
        assert metrics.by_category[Category.LW].count == 1
        assert metrics.by_estimate_quality[EstimateQuality.WELL].count == 3
        assert metrics.by_estimate_quality[EstimateQuality.POOR].count == 2


class TestMasks:
    def test_masks_match_scalar_classifiers(self):
        rng = np.random.default_rng(7)
        runtimes = rng.uniform(1.0, 20000.0, size=200)
        procs = rng.integers(1, 64, size=200)
        estimates = runtimes * rng.uniform(1.0, 8.0, size=200)
        jobs = [
            Job(job_id=i + 1, submit_time=0.0, runtime=float(r),
                estimate=float(e), procs=int(p))
            for i, (r, p, e) in enumerate(zip(runtimes, procs, estimates))
        ]
        cat_masks = category_masks(runtimes, procs)
        q_masks = quality_masks(estimates, runtimes)
        for i, job in enumerate(jobs):
            assert cat_masks[categorize(job)][i]
            assert q_masks[estimate_quality(job)][i]
        # Masks partition the population.
        total = sum(int(m.sum()) for m in cat_masks.values())
        assert total == len(jobs)

    def test_boundaries_inclusive(self):
        cat = category_masks(np.array([3600.0]), np.array([8]))
        assert cat[Category.SN][0]
        qual = quality_masks(np.array([200.0]), np.array([100.0]))
        assert qual[EstimateQuality.WELL][0]


class TestFromValues:
    def test_from_values_matches_of(self):
        records = _mixed_records()
        assert MetricSummary.of(records) == MetricSummary.from_values(
            [r.bounded_slowdown for r in records],
            [r.turnaround for r in records],
            [r.wait for r in records],
        )

    def test_empty_is_nan(self):
        summary = MetricSummary.from_values([], [], [])
        assert summary.count == 0
        assert math.isnan(summary.mean_bounded_slowdown)


class TestRecordIndex:
    def test_lookup_and_miss_message(self):
        metrics = summarize(_mixed_records())
        assert metrics.record_for(3).job.job_id == 3
        with pytest.raises(KeyError, match="no completed record for job 99"):
            metrics.record_for(99)

    def test_index_built_once_and_first_match_wins(self):
        records = _mixed_records()
        duplicate = _record(1, 1000.0, 2000.0, 50.0)  # same id, later submit
        metrics = summarize(records + [duplicate])
        first = metrics.record_for(1)
        assert first == records[0]
        assert metrics.record_for(1) is first  # served from the index
        assert "_job_index" in metrics.__dict__

    def test_index_does_not_affect_equality(self):
        records = _mixed_records()
        a = summarize(records)
        b = summarize(records)
        a.record_for(1)  # builds a's index
        assert a == b
