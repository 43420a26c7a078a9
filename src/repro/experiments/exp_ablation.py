"""Ablation: conservative-backfilling compression variants.

DESIGN.md calls out that "conservative backfilling" is underspecified on
one axis: what happens to the outstanding reservations when an early
completion opens a hole.  The variants implemented by
:class:`~repro.sched.backfill.conservative.ConservativeScheduler`:

* ``repack`` — rebuild all reservations against current state, in priority
  order (the paper's behaviour: reservations act as near-term roofs);
* ``startonly`` — only immediate starts into the hole; untouched
  reservations keep their stale, estimate-inflated far-future positions;
* ``full`` — immediate starts plus moving future reservations earlier
  (never later);
* ``none`` — holes are never refilled early.

The ablation quantifies how much the choice matters under inaccurate
estimates (it is invisible under exact estimates, where no holes open —
also checked here).
"""

from __future__ import annotations

from repro.analysis.table import Table
from repro.experiments.common import CellGrid
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult

__all__ = ["run", "declare", "MODES"]

_TRACE = "CTC"
MODES = ("none", "startonly", "full", "repack")


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    grid = CellGrid()
    for mode in MODES:
        for estimate in ("exact", "user"):
            specs = params.specs(_TRACE, estimate)
            grid.add((mode, estimate), specs, "cons", compression=mode)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="ablation-compression",
        title="Conservative compression-variant ablation, CTC",
    )
    grid = declare(params)
    table = Table(
        ["compression", "slowdown_exact", "slowdown_user", "worst_turnaround_user"]
    )
    values: dict[str, tuple[float, float, float]] = {}
    for mode in MODES:
        sld_exact = grid.mean((mode, "exact"))
        sld_user = grid.mean((mode, "user"))
        worst_user = grid.mean((mode, "user"), "max_turnaround")
        values[mode] = (sld_exact, sld_user, worst_user)
        table.append(mode, sld_exact, sld_user, worst_user)
    result.tables["compression variants"] = table

    exact_values = [values[mode][0] for mode in MODES]
    result.findings[
        "compression mode is irrelevant under exact estimates (no holes ever open)"
    ] = max(exact_values) - min(exact_values) < 1e-6
    result.findings[
        "refilling holes beats never refilling them (user estimates)"
    ] = all(values[mode][1] < values["none"][1] for mode in ("startonly", "full", "repack"))
    result.findings[
        "stale reservations (startonly) pack more greedily than repack"
    ] = values["startonly"][1] < values["repack"][1]
    result.notes.append(
        "The startonly/full variants behave like aggressive greedy packers "
        "because stale, estimate-inflated reservations barely constrain the "
        "near-term schedule; repack reproduces the paper's conservative "
        "behaviour where reservations act as roofs."
    )
    return result
