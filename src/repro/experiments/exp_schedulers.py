"""Capstone roundup: every scheduling discipline head-to-head.

Beyond the paper's conservative-vs-EASY axis, the library implements the
neighbouring design points from the paper's bibliography: strict
space-sharing (the pre-backfilling baseline), selective backfilling
(Section 6), lookahead packing (Shmueli-Feitelson), and slack-based
backfilling (Talby-Feitelson).  This experiment puts all of them on one
workload (CTC-like, high load, realistic estimates) and reports the
three-way tradeoff every site has to navigate: average slowdown,
worst-case turnaround, and fairness against the no-backfill reference.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.stats import mean
from repro.analysis.table import Table
from repro.experiments.common import CellGrid
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult
from repro.metrics.fairness import fairness_report

__all__ = ["run", "declare", "DISCIPLINES"]

_TRACE = "CTC"

#: (label, kind, priority, options)
DISCIPLINES = (
    ("NOBF-FCFS", "nobf", "FCFS", {}),
    ("MQ-FCFS", "mq", "FCFS", {}),
    ("CONS-FCFS", "cons", "FCFS", {}),
    ("EASY-FCFS", "easy", "FCFS", {}),
    ("EASY-SJF", "easy", "SJF", {}),
    ("LOOK-FCFS", "look", "FCFS", {}),
    ("SEL-FCFS t=2", "sel", "FCFS", {"xfactor_threshold": 2.0}),
    ("DEPTH-FCFS k=4", "depth", "FCFS", {"depth": 4}),
    ("SLACK-FCFS s=1", "slack", "FCFS", {"slack_factor": 1.0}),
)

#: The slack scheduler replans tentatively per candidate; cap the workload
#: so the roundup stays interactive even at full parameters.
_MAX_JOBS = 1500


def declare(params: ExperimentParams) -> CellGrid:
    """Every simulation cell this experiment reads."""
    capped = replace(params, n_jobs=min(params.n_jobs, _MAX_JOBS))
    grid = CellGrid()
    for label, kind, priority, options in DISCIPLINES:
        grid.add(label, capped.specs(_TRACE, "user"), kind, priority, **options)
    return grid


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="schedulers",
        title="All scheduling disciplines head-to-head (CTC, actual estimates)",
    )
    n_jobs = min(params.n_jobs, _MAX_JOBS)
    grid = declare(params)
    # Fairness is measured against the seed's one no-backfill run.
    references = grid.runs("NOBF-FCFS")
    table = Table(
        [
            "scheduler",
            "mean_slowdown",
            "worst_turnaround",
            "utilization",
            "delayed_vs_nobf_pct",
            "mean_unfair_delay",
        ]
    )

    rows: dict[str, dict[str, float]] = {}
    for label, _, _, _ in DISCIPLINES:
        slds, worsts, utils, delayed, unfair = [], [], [], [], []
        for metrics, reference in zip(grid.runs(label), references):
            report = fairness_report(metrics, reference)
            slds.append(metrics.overall.mean_bounded_slowdown)
            worsts.append(metrics.overall.max_turnaround)
            utils.append(metrics.utilization)
            delayed.append(100.0 * report.delayed_fraction)
            unfair.append(report.mean_unfair_delay)
        rows[label] = {
            "slowdown": mean(slds),
            "worst": mean(worsts),
            "delayed": mean(delayed),
        }
        table.append(
            label, mean(slds), mean(worsts), mean(utils), mean(delayed), mean(unfair)
        )

    result.tables["discipline roundup"] = table

    result.findings["every backfilling discipline beats no-backfill on slowdown"] = all(
        rows[label]["slowdown"] < rows["NOBF-FCFS"]["slowdown"]
        for label, kind, _, _ in DISCIPLINES
        if kind not in ("nobf", "mq")
    )
    result.findings[
        "job classes (MQ) already beat plain FCFS, backfilling beats both"
    ] = (
        rows["MQ-FCFS"]["slowdown"] < rows["NOBF-FCFS"]["slowdown"]
        and rows["EASY-FCFS"]["slowdown"] < rows["MQ-FCFS"]["slowdown"]
    )
    result.findings["lookahead packing is at least as good as greedy EASY"] = (
        rows["LOOK-FCFS"]["slowdown"] <= rows["EASY-FCFS"]["slowdown"] * 1.05
    )
    result.findings["no-backfill never delays anyone relative to itself"] = (
        rows["NOBF-FCFS"]["delayed"] == 0.0
    )
    result.notes.append(
        f"Workload capped at {n_jobs} jobs: the slack scheduler's tentative "
        "replanning is quadratic in queue depth."
    )
    return result
