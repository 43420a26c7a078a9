"""Table 4: worst-case turnaround time, CTC, exact estimates.

The counterweight to Figure 1: EASY wins on averages, but because only the
queue head holds a reservation, a job that backfills poorly can be
overtaken indefinitely.  The paper shows this as a larger worst-case
turnaround time for EASY than conservative under every priority policy.
"""

from __future__ import annotations

from repro.analysis.table import Table
from repro.experiments.common import PRIORITIES, CellGrid
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult

__all__ = ["run", "declare"]

_TRACE = "CTC"


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    grid = CellGrid()
    specs = params.specs(_TRACE, "exact")
    grid.add("cons", specs, "cons")
    for priority in PRIORITIES:
        grid.add(priority, specs, "easy", priority)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="table4",
        title="Worst-case turnaround time (s), CTC, exact estimates (paper Table 4)",
    )
    grid = declare(params)
    table = Table(["priority", "conservative", "easy"])
    cons = grid.mean("cons", "max_turnaround")
    for priority in PRIORITIES:
        easy = grid.mean(priority, "max_turnaround")
        table.append(priority, cons, easy)
        result.findings[
            f"worst-case turnaround: EASY-{priority} worse than conservative"
        ] = easy > cons
    result.tables["worst-case turnaround"] = table
    result.notes.append(
        "Conservative is shown once per priority because its schedule is "
        "priority-independent under exact estimates (Section 4.1); the "
        "worst case comes from the bound its reservations give every job."
    )
    return result
