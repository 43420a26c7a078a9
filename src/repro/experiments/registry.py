"""Experiment registry: id -> runner, and the cells each experiment reads.

Both tables derive from one list of experiment modules.
:data:`EXPERIMENTS` maps each id to its module's ``run(params)``.  A
module whose grid is plain cells also defines ``declare(params)``,
returning the :class:`~repro.experiments.common.CellGrid` its ``run()``
reads from; :func:`collect_cells` merges those declarations into one
prefetch plan (the CLI's ``experiment all --parallel N`` path), so
shared cells — e.g. the exact-estimate conservative baseline that
Figures 1/2 and Table 4 all read — are simulated exactly once, with
maximum fan-out.  The remaining experiments drive bespoke simulators
(grid metascheduling, preemption, maintenance windows, ...) and declare
nothing.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExperimentError
from repro.exec import Cell
from repro.experiments import (
    exp_ablation,
    exp_depth,
    exp_figure1,
    exp_figure2,
    exp_figure3,
    exp_figure4,
    exp_grid,
    exp_loadsweep,
    exp_maintenance,
    exp_preemption,
    exp_schedulers,
    exp_selective,
    exp_table4,
    exp_table7,
    exp_tables_2_3,
    exp_tables_5_6,
)
from repro.experiments.config import DEFAULT_PARAMS, ExperimentParams
from repro.experiments.runner import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "collect_cells",
]

#: Every experiment's module, in paper order.
_MODULES = {
    "tables23": exp_tables_2_3,
    "figure1": exp_figure1,
    "figure2": exp_figure2,
    "table4": exp_table4,
    "tables56": exp_tables_5_6,
    "figure3": exp_figure3,
    "figure4": exp_figure4,
    "table7": exp_table7,
    "selective": exp_selective,
    "ablation-compression": exp_ablation,
    "loadsweep": exp_loadsweep,
    "schedulers": exp_schedulers,
    "grid": exp_grid,
    "preemption": exp_preemption,
    "depth": exp_depth,
    "maintenance": exp_maintenance,
}

#: All experiments, in paper order.
EXPERIMENTS: dict[str, Callable[[ExperimentParams], ExperimentResult]] = {
    experiment_id: module.run for experiment_id, module in _MODULES.items()
}


def get_experiment(experiment_id: str) -> Callable[[ExperimentParams], ExperimentResult]:
    """Look up an experiment runner by id; raises ExperimentError if unknown."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def collect_cells(
    experiment_ids: list[str] | tuple[str, ...],
    params: ExperimentParams | None = None,
) -> list[Cell]:
    """The deduplicated union of the given experiments' declared cells.

    Unknown ids raise; experiments without a declaration contribute
    nothing.  First-appearance order is preserved so execution order
    (and thus progress reporting) is deterministic.
    """
    params = params or DEFAULT_PARAMS
    union: dict[Cell, None] = {}
    for experiment_id in experiment_ids:
        get_experiment(experiment_id)  # validate the id
        declare = getattr(_MODULES[experiment_id], "declare", None)
        if declare is not None:
            union.update(dict.fromkeys(declare(params).cells()))
    return list(union)


def run_experiment(
    experiment_id: str, params: ExperimentParams | None = None
) -> ExperimentResult:
    """Run one experiment by id with the given (or default) parameters.

    An experiment with a declaration runs its whole grid in one
    :func:`repro.exec.run_cells` batch on its first read — maximally
    parallel under a ``--parallel`` executor.
    """
    return get_experiment(experiment_id)(params or DEFAULT_PARAMS)
