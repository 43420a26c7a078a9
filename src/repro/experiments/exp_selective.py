"""Section 6 extension: selective backfilling threshold sweep.

The paper closes by proposing *selective backfilling*: no job holds a
reservation until its expected slowdown (expansion factor) crosses a
threshold.  "If the threshold is chosen judiciously, few jobs should have
reservations at any time, but the most needy of jobs get assured
reservations."

This experiment sweeps the threshold between the conservative-like
(threshold 1: everyone is immediately needy) and EASY-like (large
threshold: nobody is) extremes on the CTC trace with actual user
estimates, reporting overall slowdown, worst-case turnaround, and the
short-wide category that motivated reservations in the first place.

Hypotheses checked (from the paper's concluding paragraph):

* a mid-range threshold achieves average slowdown at least as good as
  conservative backfilling;
* the same threshold bounds the worst-case turnaround better than EASY.
"""

from __future__ import annotations

import math

from repro.analysis.table import Table
from repro.experiments.common import CellGrid, tradeoff
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult

__all__ = ["run", "declare", "THRESHOLDS"]

_TRACE = "CTC"
_ESTIMATE = "user"
THRESHOLDS = (1.0, 1.5, 2.0, 4.0, 8.0)


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    grid = CellGrid()
    specs = params.specs(_TRACE, _ESTIMATE)
    grid.add("cons", specs, "cons")
    grid.add("easy", specs, "easy")
    for threshold in THRESHOLDS:
        grid.add(threshold, specs, "sel", xfactor_threshold=threshold)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="selective",
        title="Selective backfilling threshold sweep, CTC, actual estimates (paper Section 6)",
    )
    grid = declare(params)
    table = Table(
        ["scheduler", "xf_threshold", "mean_slowdown", "worst_turnaround", "SW_slowdown"]
    )

    cons_sld, cons_worst, cons_sw = tradeoff(grid, "cons")
    easy_sld, easy_worst, easy_sw = tradeoff(grid, "easy")
    table.append("CONS", math.nan, cons_sld, cons_worst, cons_sw)
    table.append("EASY", math.nan, easy_sld, easy_worst, easy_sw)

    sweep: dict[float, tuple[float, float, float]] = {}
    for threshold in THRESHOLDS:
        sld, worst, sw = tradeoff(grid, threshold)
        sweep[threshold] = (sld, worst, sw)
        table.append("SEL", threshold, sld, worst, sw)

    result.tables["threshold sweep"] = table
    mid_range = [sweep[t] for t in THRESHOLDS if 1.5 <= t <= 4.0]
    result.findings[
        "some mid-range threshold matches or beats conservative's average slowdown"
    ] = any(sld <= cons_sld * 1.05 for sld, _, _ in mid_range)
    result.findings[
        "the same sweep contains a threshold with better worst-case turnaround than EASY"
    ] = any(worst < easy_worst for _, worst, _ in mid_range)
    result.findings[
        "selective protects SW jobs better than EASY at mid-range thresholds"
    ] = any(sw < easy_sw for _, _, sw in mid_range)
    return result
