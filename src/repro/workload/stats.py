"""Workload characterization statistics (paper Section 3 methodology).

Before comparing schedulers, the paper characterizes its traces: machine
size, category mix, load.  This module computes that characterization —
and more — for any workload, synthetic or parsed from SWF:

* :func:`characterize` — the headline numbers: size, span, offered load,
  category mix, estimate-accuracy split, width/runtime distribution
  summaries;
* :func:`runtime_histogram` / :func:`width_histogram` — log-scale
  runtime deciles and power-of-two width buckets;
* :func:`hourly_arrival_profile` — submissions per hour-of-day, exposing
  the daily cycle;
* :func:`characterization_table` — everything as a renderable
  :class:`~repro.analysis.table.Table` for reports.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import WorkloadError
from repro.metrics.categories import (
    Category,
    EstimateQuality,
    category_counts,
    estimate_quality,
)
from repro.workload.job import Workload

if TYPE_CHECKING:
    from repro.analysis.table import Table

__all__ = [
    "characterize",
    "runtime_histogram",
    "width_histogram",
    "hourly_arrival_profile",
    "characterization_table",
]


def _require_jobs(workload: Workload) -> None:
    if len(workload) == 0:
        raise WorkloadError("cannot characterize an empty workload")


def characterize(workload: Workload) -> dict:
    """Headline characterization (see module docstring)."""
    _require_jobs(workload)
    runtimes = np.array([job.runtime for job in workload])
    widths = np.array([job.procs for job in workload])
    factors = np.array([job.overestimation_factor for job in workload])
    counts = category_counts(workload)
    total = len(workload)
    quality = Counter(estimate_quality(job) for job in workload)
    return {
        "name": workload.name,
        "jobs": total,
        "max_procs": workload.max_procs,
        "span_days": workload.span / 86_400.0,
        "offered_load": workload.offered_load,
        "category_pct": {
            category.value: 100.0 * counts[category] / total for category in Category
        },
        "runtime_seconds": {
            "min": float(runtimes.min()),
            "median": float(np.median(runtimes)),
            "mean": float(runtimes.mean()),
            "max": float(runtimes.max()),
        },
        "width_procs": {
            "min": int(widths.min()),
            "median": float(np.median(widths)),
            "mean": float(widths.mean()),
            "max": int(widths.max()),
        },
        "estimate_accuracy": {
            "well_pct": 100.0 * quality[EstimateQuality.WELL] / total,
            "poor_pct": 100.0 * quality[EstimateQuality.POOR] / total,
            "median_factor": float(np.median(factors)),
            "max_factor": float(factors.max()),
        },
    }


def runtime_histogram(workload: Workload, *, decades_from: float = 1.0) -> dict[str, int]:
    """Job counts per runtime decade: [1, 10), [10, 100), ... seconds."""
    _require_jobs(workload)
    buckets: Counter[str] = Counter()
    for job in workload:
        decade = max(int(math.floor(math.log10(max(job.runtime, decades_from)))), 0)
        low, high = 10**decade, 10 ** (decade + 1)
        buckets[f"[{low}, {high})s"] += 1
    return dict(sorted(buckets.items(), key=lambda kv: float(kv[0][1:].split(",")[0])))


def width_histogram(workload: Workload) -> dict[str, int]:
    """Job counts per power-of-two width bucket: 1, 2, 3-4, 5-8, 9-16, ..."""
    _require_jobs(workload)
    buckets: Counter[str] = Counter()
    for job in workload:
        if job.procs == 1:
            label = "1"
        elif job.procs == 2:
            label = "2"
        else:
            exponent = math.ceil(math.log2(job.procs))
            label = f"{2 ** (exponent - 1) + 1}-{2 ** exponent}"
        buckets[label] += 1
    return dict(
        sorted(buckets.items(), key=lambda kv: int(kv[0].split("-")[0]))
    )


def hourly_arrival_profile(workload: Workload) -> list[int]:
    """Submissions per hour-of-day (24 buckets, day = 86 400 s)."""
    _require_jobs(workload)
    profile = [0] * 24
    for job in workload:
        hour = int((job.submit_time % 86_400.0) // 3600.0)
        profile[hour] += 1
    return profile


def characterization_table(workload: Workload) -> Table:
    """The characterization as a renderable two-column table."""
    # Imported here: the workload layer sits below analysis, and a
    # module-level import would pull analysis (and through its report
    # writer the experiments and the simulator) into ``repro.workload``.
    from repro.analysis.table import Table

    info = characterize(workload)
    table = Table(["property", "value"])
    table.append("name", info["name"])
    table.append("jobs", info["jobs"])
    table.append("processors", info["max_procs"])
    table.append("span (days)", f"{info['span_days']:.2f}")
    table.append("offered load", f"{info['offered_load']:.3f}")
    for category, pct in info["category_pct"].items():
        table.append(f"category {category} (%)", f"{pct:.2f}")
    for key, value in info["runtime_seconds"].items():
        table.append(f"runtime {key} (s)", f"{value:,.0f}")
    for key, value in info["width_procs"].items():
        table.append(f"width {key}", f"{value:,.1f}" if isinstance(value, float) else value)
    for key, value in info["estimate_accuracy"].items():
        table.append(f"estimates {key}", f"{value:,.2f}")
    return table
