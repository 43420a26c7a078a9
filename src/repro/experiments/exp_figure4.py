"""Figure 4: well vs poorly estimated jobs, accurate vs actual estimates.

The paper's Section 5.2 analysis: split jobs into *well estimated*
(estimate <= 2x runtime) and *poorly estimated* (> 2x), then compare each
group's average slowdown in the actual-estimates run against the *same
group of jobs* in the exact-estimates run.

Paper claims to reproduce (CTC; four panels = {conservative, EASY} x
{well, poor}):

* well-estimated jobs' slowdown decreases relative to the exact-estimates
  schedule — they exploit the holes the poorly estimated jobs create;
* poorly-estimated jobs' slowdown increases — their inflated apparent
  length makes backfilling hard;
* both effects are more pronounced under conservative than under EASY.
"""

from __future__ import annotations

from repro.analysis.stats import mean, relative_change_percent
from repro.analysis.table import Table
from repro.experiments.common import (
    PRIORITIES,
    CellGrid,
    conditional_slowdown,
    quality_ids,
)
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult
from repro.metrics.categories import EstimateQuality

__all__ = ["run", "declare"]

_TRACE = "CTC"


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    grid = CellGrid()
    for kind in ("cons", "easy"):
        for priority in PRIORITIES:
            for estimate in ("exact", "user"):
                key = (kind, priority, estimate)
                grid.add(key, params.specs(_TRACE, estimate), kind, priority)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="figure4",
        title="Well vs poorly estimated jobs, exact vs actual estimates, CTC (paper Figure 4)",
    )
    grid = declare(params)
    table = Table(
        ["scheduler", "priority", "quality", "exact_slowdown", "user_slowdown", "pct_change"]
    )
    changes: dict[tuple[str, str, EstimateQuality], float] = {}
    for kind in ("cons", "easy"):
        for priority in PRIORITIES:
            per_quality: dict[EstimateQuality, list[tuple[float, float]]] = {
                q: [] for q in EstimateQuality
            }
            for seed, exact, user in zip(
                params.seeds,
                grid.runs((kind, priority, "exact")),
                grid.runs((kind, priority, "user")),
            ):
                ids = quality_ids(params, _TRACE, seed)
                for quality in EstimateQuality:
                    per_quality[quality].append(
                        (
                            conditional_slowdown(exact, ids[quality]),
                            conditional_slowdown(user, ids[quality]),
                        )
                    )
            for quality in EstimateQuality:
                exact_mean = mean([pair[0] for pair in per_quality[quality]])
                user_mean = mean([pair[1] for pair in per_quality[quality]])
                change = relative_change_percent(user_mean, exact_mean)
                changes[(kind, priority, quality)] = change
                table.append(
                    kind.upper(), priority, quality.value, exact_mean, user_mean, change
                )

    result.tables["quality-conditioned slowdowns"] = table

    result.findings[
        "CONS-FCFS: poorly estimated jobs deteriorate under actual estimates"
    ] = changes[("cons", "FCFS", EstimateQuality.POOR)] > 0
    result.findings[
        "CONS-FCFS: well estimated jobs do not materially deteriorate (<= +5%)"
    ] = changes[("cons", "FCFS", EstimateQuality.WELL)] <= 5.0
    result.findings[
        "well estimated jobs fare better than poorly estimated under CONS (all priorities)"
    ] = all(
        changes[("cons", p, EstimateQuality.WELL)]
        < changes[("cons", p, EstimateQuality.POOR)]
        for p in PRIORITIES
    )
    result.findings[
        "well estimated jobs fare better than poorly estimated under EASY (SJF, XF)"
    ] = all(
        changes[("easy", p, EstimateQuality.WELL)]
        < changes[("easy", p, EstimateQuality.POOR)]
        for p in ("SJF", "XF")
    )
    result.findings[
        "EASY: poorly estimated jobs deteriorate under estimate-sensitive priorities"
    ] = all(changes[("easy", p, EstimateQuality.POOR)] > 0 for p in ("SJF", "XF"))
    result.findings[
        "poor-job deterioration stronger under CONS than EASY (FCFS)"
    ] = changes[("cons", "FCFS", EstimateQuality.POOR)] > changes[
        ("easy", "FCFS", EstimateQuality.POOR)
    ]
    return result
