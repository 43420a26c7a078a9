"""Shared helpers for the experiment modules.

A cell-shaped experiment names the cells it reads once, in a
``declare(params)`` function that returns a :class:`CellGrid`.  The
registry's :func:`~repro.experiments.registry.collect_cells` prefetches
that declaration's cells, and the experiment's ``run()`` reads only
through it: the first read runs every declared cell in one
:func:`repro.exec.run_cells` batch, and a read of an undeclared key
raises :class:`~repro.errors.ExperimentError`.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.analysis.stats import mean
from repro.errors import ExperimentError
from repro.exec import Cell, run_cells
from repro.experiments.config import ExperimentParams, WorkloadSpec
from repro.experiments.runner import cached_table
from repro.metrics.categories import Category, EstimateQuality, quality_masks
from repro.metrics.collector import RunMetrics
from repro.metrics.defs import bounded_slowdowns

__all__ = [
    "PRIORITIES",
    "CellGrid",
    "tradeoff",
    "quality_ids",
    "conditional_slowdown",
]

#: The paper's three priority policies, in presentation order.
PRIORITIES = ("FCFS", "SJF", "XF")


class CellGrid:
    """The cells one experiment reads, each run declared once under a key."""

    def __init__(self) -> None:
        self._cells: dict[Hashable, list[Cell]] = {}
        self._metrics: dict[Cell, RunMetrics] | None = None

    def add(
        self,
        key: Hashable,
        specs: list[WorkloadSpec],
        kind: str,
        priority: str = "FCFS",
        **options,
    ) -> None:
        """Declare ``key`` as one cell per spec (per seed, usually)."""
        if key in self._cells:
            raise ExperimentError(f"cell {key!r} is declared twice")
        self._cells[key] = [Cell.make(spec, kind, priority, **options) for spec in specs]

    def cells(self) -> list[Cell]:
        """Every declared cell once, in declaration order: the prefetch plan."""
        return list(dict.fromkeys(c for cells in self._cells.values() for c in cells))

    def runs(self, key: Hashable) -> list[RunMetrics]:
        """Metrics of ``key``'s cells, in declaration (seed) order."""
        if key not in self._cells:
            raise ExperimentError(f"cell {key!r} was not declared")
        if self._metrics is None:
            plan = self.cells()
            self._metrics = dict(zip(plan, run_cells(plan)))
        return [self._metrics[cell] for cell in self._cells[key]]

    def mean(
        self,
        key: Hashable,
        field: str = "mean_bounded_slowdown",
        category: Category | None = None,
    ) -> float:
        """Seed-mean of one overall (or one category's) summary field."""
        return mean([
            getattr(m.overall if category is None else m.by_category[category], field)
            for m in self.runs(key)
        ])


def tradeoff(grid: CellGrid, key: Hashable) -> tuple[float, float, float]:
    """Seed-means of ``key``'s slowdown, worst-case turnaround and SW slowdown.

    The packing-versus-protection tradeoff the selective and depth sweeps
    tabulate for each point between EASY and conservative.
    """
    return (
        grid.mean(key),
        grid.mean(key, "max_turnaround"),
        grid.mean(key, category=Category.SW),
    )


def quality_ids(params: ExperimentParams, trace: str, seed: int) -> dict[EstimateQuality, set[int]]:
    """Job-id sets per estimate-quality class of the *user-estimate* workload.

    Figure 4 compares the same job sets across the exact and user-estimate
    runs, so the classification always comes from the user-estimate
    workload (under exact estimates every job is trivially "well").
    """
    columns = cached_table(params.spec(trace, seed, "user")).columns
    masks = quality_masks(columns["estimate"], columns["runtime"])
    return {q: set(columns["job_id"][mask].tolist()) for q, mask in masks.items()}


def conditional_slowdown(metrics: RunMetrics, ids: set[int]) -> float:
    """Mean bounded slowdown restricted to the given job ids, in record order."""
    job_id, submit, start, finish = metrics.record_columns(
        "job_id", "submit_time", "start_time", "finish_time"
    )
    slowdowns = bounded_slowdowns(submit, start, finish)
    return mean(slowdowns[np.isin(job_id, list(ids))].tolist())
