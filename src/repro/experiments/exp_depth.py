"""Reservation-depth sweep: the continuum between EASY and conservative.

The paper's whole comparison is between the two endpoints — one
reservation (EASY) and reservations for all (conservative).  Production
schedulers expose the dial in between (Maui's RESERVATIONDEPTH); this
experiment sweeps it on the CTC workload with actual user estimates and
shows the continuum connecting the paper's two columns:

* the full-depth endpoint coincides exactly with conservative-repack
  (verified cell-by-cell in the table);
* worst-case turnaround (the protection metric, paper Tables 4/7)
  improves as the reservation front deepens;
* average slowdown (the packing metric, paper Figures 1/3) is best at
  shallow depth — the same tradeoff the paper reads off its endpoints.
"""

from __future__ import annotations

import math

from repro.analysis.table import Table
from repro.experiments.common import CellGrid, tradeoff
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult

__all__ = ["run", "declare", "DEPTHS"]

_TRACE = "CTC"
_ESTIMATE = "user"
DEPTHS = (1, 2, 4, 8, 10**6)


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    grid = CellGrid()
    specs = params.specs(_TRACE, _ESTIMATE)
    grid.add("easy", specs, "easy")
    grid.add("cons", specs, "cons")
    for depth in DEPTHS:
        grid.add(depth, specs, "depth", depth=depth)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="depth",
        title="Reservation-depth sweep: the EASY-conservative continuum",
    )
    grid = declare(params)
    table = Table(
        ["scheduler", "depth", "mean_slowdown", "worst_turnaround", "SW_slowdown"]
    )

    easy = tradeoff(grid, "easy")
    cons = tradeoff(grid, "cons")
    table.append("EASY", math.nan, *easy)
    table.append("CONS", math.nan, *cons)

    sweep: dict[int, tuple[float, float, float]] = {}
    for depth in DEPTHS:
        sweep[depth] = tradeoff(grid, depth)
        label = depth if depth < 10**6 else "all"
        table.append("DEPTH", label, *sweep[depth])

    result.tables["depth sweep"] = table
    full = DEPTHS[-1]
    result.findings[
        "full reservation depth coincides with conservative repack"
    ] = all(
        abs(a - b) < 1e-9 for a, b in zip(sweep[full], cons)
    )
    result.findings[
        "depth 1 sits at the EASY end of the continuum (within 15%)"
    ] = (
        sweep[1][0] <= 1.15 * easy[0] and sweep[1][1] <= 1.15 * easy[1]
    )
    result.findings[
        "deeper reservations improve the worst-case turnaround"
    ] = sweep[full][1] <= sweep[1][1]
    result.findings[
        "short-wide protection grows with the reservation front"
    ] = sweep[full][2] <= sweep[1][2]
    return result
