"""Figure 2: category-wise comparison of conservative vs EASY (CTC, exact).

The paper's key analytical device: break the slowdown comparison down by
job category.  For each priority policy it plots the *relative change* in
average slowdown of EASY relative to conservative, per category (negative
= EASY better).

Paper claims to reproduce (Section 4.2):

* LN (long narrow) jobs benefit from EASY under every priority — fewer
  blocking reservations mean long jobs backfill more easily;
* SW (short wide) jobs benefit from conservative under FCFS — they rely
  on the start-time guarantee;
* under SJF and XF the short categories (SN, SW) also gain from EASY
  because those policies explicitly favour them;
* SN and LW show no consistent winner under FCFS.
"""

from __future__ import annotations

from repro.analysis.ascii_chart import bar_chart
from repro.analysis.stats import relative_change_percent
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
    # Conservative is priority-independent at R=1: one FCFS run.
    grid.add("cons", specs, "cons")
    for priority in PRIORITIES:
        grid.add(priority, specs, "easy", priority)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    from repro.metrics.categories import Category

    result = ExperimentResult(
        experiment_id="figure2",
        title="Category-wise EASY vs conservative, CTC, exact estimates (paper Figure 2)",
    )
    grid = declare(params)
    table = Table(["priority", "category", "cons_slowdown", "easy_slowdown", "pct_change"])

    changes: dict[str, dict[str, float]] = {}
    for priority in PRIORITIES:
        per_category: dict[str, float] = {}
        for category in Category:
            cons = grid.mean("cons", category=category)
            easy = grid.mean(priority, category=category)
            change = relative_change_percent(easy, cons)
            per_category[category.value] = change
            table.append(priority, category.value, cons, easy, change)
        # Overall row, as in the paper's figure.
        cons_all = grid.mean("cons")
        easy_all = grid.mean(priority)
        overall_change = relative_change_percent(easy_all, cons_all)
        per_category["Overall"] = overall_change
        table.append(priority, "Overall", cons_all, easy_all, overall_change)
        changes[priority] = per_category
        result.charts[f"% change under {priority}"] = bar_chart(
            per_category,
            title=f"EASY vs conservative, % change in slowdown ({priority}; negative = EASY better)",
            unit="%",
        )

    result.findings["LN jobs benefit from EASY under all priorities"] = all(
        changes[p]["LN"] < 0 for p in PRIORITIES
    )
    result.findings["SW jobs benefit from conservative under FCFS"] = (
        changes["FCFS"]["SW"] > 0
    )
    result.findings["short jobs (SN) benefit from EASY under SJF"] = (
        changes["SJF"]["SN"] < 0
    )
    result.findings["short jobs (SN) benefit from EASY under XF"] = (
        changes["XF"]["SN"] < 0
    )
    result.findings["overall average improves under EASY-SJF"] = (
        changes["SJF"]["Overall"] < 0
    )
    result.findings["overall average improves under EASY-XF"] = (
        changes["XF"]["Overall"] < 0
    )
    result.tables["category-wise slowdowns"] = table
    return result
