"""Metrics: per-job scheduling outcomes, categorization, and aggregation."""

from repro.metrics.defs import (
    BOUNDED_SLOWDOWN_THRESHOLD,
    bounded_slowdown,
    slowdown,
    turnaround_time,
    wait_time,
)
from repro.metrics.categories import (
    Category,
    EstimateQuality,
    categorize,
    estimate_quality,
    category_masks,
    quality_masks,
    SHORT_LONG_BOUNDARY_SECONDS,
    NARROW_WIDE_BOUNDARY_PROCS,
    WELL_ESTIMATED_MAX_FACTOR,
)
from repro.metrics.collector import CompletedJob, RunMetrics, summarize
from repro.metrics.streaming import (
    GroupAccumulator,
    QuantileReservoir,
    StreamingMetrics,
)

__all__ = [
    "BOUNDED_SLOWDOWN_THRESHOLD",
    "bounded_slowdown",
    "slowdown",
    "turnaround_time",
    "wait_time",
    "Category",
    "EstimateQuality",
    "categorize",
    "estimate_quality",
    "SHORT_LONG_BOUNDARY_SECONDS",
    "NARROW_WIDE_BOUNDARY_PROCS",
    "WELL_ESTIMATED_MAX_FACTOR",
    "category_masks",
    "quality_masks",
    "CompletedJob",
    "RunMetrics",
    "summarize",
    "StreamingMetrics",
    "QuantileReservoir",
    "GroupAccumulator",
]
