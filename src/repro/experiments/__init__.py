"""Experiment harness: one module per table/figure of the paper.

Every experiment is a pure function of its :class:`ExperimentParams`
(workload sizes, seeds, load scale) and returns an
:class:`ExperimentResult` carrying data tables, rendered charts, and a
``findings`` dict with the boolean trend checks that EXPERIMENTS.md
records.  The registry maps experiment ids (``figure1``, ``table4``, ...)
to their runners; the CLI and the benchmark suite both go through it.
"""

from repro.experiments.config import (
    DEFAULT_PARAMS,
    QUICK_PARAMS,
    ExperimentParams,
    WorkloadSpec,
)
from repro.experiments.runner import (
    ExperimentResult,
    cached_workload,
    clear_cache,
    make_estimate_model,
    make_scheduler,
    make_workload,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    collect_cells,
    get_experiment,
    run_experiment,
)

__all__ = [
    "DEFAULT_PARAMS",
    "QUICK_PARAMS",
    "ExperimentParams",
    "WorkloadSpec",
    "ExperimentResult",
    "cached_workload",
    "clear_cache",
    "make_estimate_model",
    "make_scheduler",
    "make_workload",
    "EXPERIMENTS",
    "collect_cells",
    "get_experiment",
    "run_experiment",
]
