"""Tables 5 and 6: systematic overestimation of runtimes (CTC).

Estimates are set to R x actual runtime for R in {1, 2, 4} (paper Section
5.1).  Table 5 reports conservative backfilling, Table 6 EASY, each under
FCFS, SJF and XFactor.

Paper claims to reproduce:

* overall slowdown *decreases significantly* with systematic
  overestimation relative to exact estimates, because early completions
  open holes that enable extra backfilling;
* the effect is much more pronounced under conservative than under EASY —
  EASY already backfills aggressively when estimates are exact.
"""

from __future__ import annotations

from repro.analysis.table import Table
from repro.experiments.common import PRIORITIES, CellGrid
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult

__all__ = ["run", "declare"]

_TRACE = "CTC"
_REGIMES = (("R=1", "exact"), ("R=2", "r2"), ("R=4", "r4"))


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    grid = CellGrid()
    for kind in ("cons", "easy"):
        for priority in PRIORITIES:
            for label, estimate in _REGIMES:
                specs = params.specs(_TRACE, estimate)
                grid.add((kind, priority, label), specs, kind, priority)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="tables56",
        title="Systematic overestimation R in {1,2,4}, CTC (paper Tables 5-6)",
    )
    grid = declare(params)
    values: dict[tuple[str, str, str], float] = {}
    for kind, table_name in (("cons", "Table 5: conservative"), ("easy", "Table 6: EASY")):
        table = Table(["priority"] + [label for label, _ in _REGIMES])
        for priority in PRIORITIES:
            row = [priority]
            for label, _ in _REGIMES:
                value = grid.mean((kind, priority, label))
                values[(kind, priority, label)] = value
                row.append(value)
            table.append(*row)
        result.tables[table_name] = table

    for priority in PRIORITIES:
        result.findings[
            f"CONS-{priority}: R=2 improves slowdown vs exact"
        ] = values[("cons", priority, "R=2")] < values[("cons", priority, "R=1")]

    # Relative benefit: conservative gains more from overestimation than EASY.
    def gain(kind: str, priority: str) -> float:
        base = values[(kind, priority, "R=1")]
        best = min(values[(kind, priority, "R=2")], values[(kind, priority, "R=4")])
        return (base - best) / base

    for priority in PRIORITIES:
        # The paper: "With EASY backfilling, the difference is less
        # significant because EASY provides good backfilling opportunities
        # even when user estimates are accurate."  Checked as: EASY's R=2
        # change stays small in magnitude (within 10% either way) and below
        # conservative's improvement.
        easy_change = abs(
            values[("easy", priority, "R=2")] - values[("easy", priority, "R=1")]
        ) / values[("easy", priority, "R=1")]
        result.findings[
            f"EASY-{priority}: overestimation effect is minor (|change| < 10%)"
        ] = easy_change < 0.10

    result.findings[
        "overestimation benefit larger under conservative than EASY (all priorities)"
    ] = all(gain("cons", p) > gain("easy", p) for p in PRIORITIES)
    return result
