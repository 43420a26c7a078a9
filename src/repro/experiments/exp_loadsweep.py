"""Load sweep: the paper's normal-vs-high-load methodology (Section 3).

"Simulation studies were performed under both normal and high loads. ...
Similar trends were observed under both loads.  The trends are pronounced
under high load.  Hence we present the results for high load."

This experiment makes that methodological claim itself reproducible: it
sweeps the inter-arrival scale factor from normal load to the paper's
high-load setting and shows (a) every scheduler's slowdown grows with
load, and (b) the EASY-SJF advantage over conservative *widens* with
load — the "trends are pronounced" statement, quantified.
"""

from __future__ import annotations

from repro.analysis.stats import mean
from repro.analysis.table import Table
from repro.experiments.common import CellGrid
from repro.experiments.config import ExperimentParams, WorkloadSpec
from repro.experiments.runner import ExperimentResult, cached_workload

__all__ = ["run", "declare", "LOAD_SCALES"]

_TRACE = "CTC"

#: Inter-arrival scale factors: 1.0 is the generators' native ~0.65 load,
#: 0.75 is the paper-style high-load condition used everywhere else.
LOAD_SCALES = (1.0, 0.9, 0.8, 0.75)

#: The disciplines compared at every load level.
_KINDS = (("cons", "FCFS"), ("easy", "FCFS"), ("easy", "SJF"))


def _specs(params: ExperimentParams, scale: float) -> list[WorkloadSpec]:
    return [
        WorkloadSpec(_TRACE, params.n_jobs, seed, scale, "exact")
        for seed in params.seeds
    ]


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    grid = CellGrid()
    for scale in LOAD_SCALES:
        for kind, priority in _KINDS:
            grid.add((scale, kind, priority), _specs(params, scale), kind, priority)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="loadsweep",
        title="Normal vs high load: trends persist and sharpen (paper Section 3)",
    )
    grid = declare(params)
    table = Table(
        ["load_scale", "offered_load", "cons", "easy_fcfs", "easy_sjf", "sjf_advantage"]
    )
    gap_by_scale: dict[float, float] = {}
    slowdown_by_scale: dict[float, dict[str, float]] = {}
    for scale in LOAD_SCALES:
        specs = _specs(params, scale)
        offered = mean([cached_workload(spec).offered_load for spec in specs])
        cons = grid.mean((scale, "cons", "FCFS"))
        easy_fcfs = grid.mean((scale, "easy", "FCFS"))
        easy_sjf = grid.mean((scale, "easy", "SJF"))
        advantage = cons / easy_sjf
        gap_by_scale[scale] = advantage
        slowdown_by_scale[scale] = {
            "cons": cons,
            "easy_fcfs": easy_fcfs,
            "easy_sjf": easy_sjf,
        }
        table.append(scale, offered, cons, easy_fcfs, easy_sjf, advantage)

    result.tables["load sweep"] = table

    normal, high = LOAD_SCALES[0], LOAD_SCALES[-1]
    for name in ("cons", "easy_fcfs", "easy_sjf"):
        result.findings[f"{name}: slowdown grows from normal to high load"] = (
            slowdown_by_scale[high][name] > slowdown_by_scale[normal][name]
        )
    result.findings[
        "EASY-SJF beats conservative at every load level"
    ] = all(gap > 1.0 for gap in gap_by_scale.values())
    result.findings[
        "the EASY-SJF advantage is more pronounced at high load"
    ] = gap_by_scale[high] > gap_by_scale[normal]
    return result
