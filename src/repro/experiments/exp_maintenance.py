"""Advance reservations: the cost of maintenance windows.

Advance reservations (Snell et al., in the paper's related-work orbit) are
hard rectangles batch jobs must pack around.  The canonical operational
case is a recurring full-machine maintenance window.  This experiment runs
the CTC workload with actual user estimates under conservative
backfilling, with and without a weekly two-hour full-machine window, and
for a half-machine window as a milder variant:

* every schedule remains feasible — no job ever overlaps a window
  (enforced by the scheduler holding each window on its machine;
  re-verified here from the records);
* windows never help: both variants cost measurable slowdown over the
  no-window baseline (the half-vs-full *ordering* is NOT asserted — a
  half-width window constricts the machine awkwardly and can pack worse
  than a clean full stop on some workloads, a real scheduling anomaly);
* the cost is disproportionate to the capacity removed: a ~1 % capacity
  loss costs far more than 1 % in mean slowdown, because the scheduler
  must drain wide holes ahead of each window.
"""

from __future__ import annotations

from repro.analysis.stats import mean
from repro.analysis.table import Table
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import ExperimentResult, cached_workload
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.reservations import AdvanceReservation
from repro.sim.engine import simulate

__all__ = ["run", "WINDOW_PERIOD", "WINDOW_DURATION"]

_TRACE = "CTC"
WINDOW_PERIOD = 7 * 86_400.0  # weekly
WINDOW_DURATION = 2 * 3_600.0  # two hours


def _windows(span: float, procs: int) -> tuple[AdvanceReservation, ...]:
    """Weekly windows covering the workload's span."""
    windows = []
    start = WINDOW_PERIOD
    while start < span:
        windows.append(
            AdvanceReservation(
                procs=procs, start=start, duration=WINDOW_DURATION, label="maint"
            )
        )
        start += WINDOW_PERIOD
    return tuple(windows)


def run(params: ExperimentParams) -> ExperimentResult:
    """Run this experiment at the given parameters (see module docs)."""
    result = ExperimentResult(
        experiment_id="maintenance",
        title="Advance reservations: the cost of maintenance windows (CTC)",
    )
    table = Table(
        ["windows", "mean_slowdown", "worst_turnaround", "capacity_lost_pct"]
    )

    values: dict[str, float] = {}
    for label, procs_fraction in (
        ("none", 0.0),
        ("half machine", 0.5),
        ("full machine", 1.0),
    ):
        slds, worsts = [], []
        capacity_lost = 0.0
        for seed in params.seeds:
            workload = cached_workload(params.spec(_TRACE, seed, "user"))
            machine_procs = workload.max_procs
            if procs_fraction == 0.0:
                windows: tuple[AdvanceReservation, ...] = ()
            else:
                windows = _windows(
                    workload.span, max(int(machine_procs * procs_fraction), 1)
                )
            scheduler = ConservativeScheduler(advance_reservations=windows)
            run_result = simulate(workload, scheduler)
            # No completed job may overlap a full-machine window.
            for window in windows:
                if window.procs < machine_procs:
                    continue
                for record in run_result.completed:
                    assert (
                        record.finish_time <= window.start + 1e-6
                        or record.start_time >= window.end - 1e-6
                    ), f"job {record.job.job_id} overlaps window {window}"
            slds.append(run_result.metrics.overall.mean_bounded_slowdown)
            worsts.append(run_result.metrics.overall.max_turnaround)
            blocked = sum(w.procs * w.duration for w in windows)
            capacity_lost = 100.0 * blocked / (machine_procs * workload.span)
        values[label] = mean(slds)
        table.append(label, mean(slds), mean(worsts), capacity_lost)

    result.tables["maintenance windows"] = table
    result.findings["full-machine windows cost slowdown vs none"] = (
        values["full machine"] > values["none"]
    )
    result.findings["half-machine windows never help (>= baseline)"] = (
        values["half machine"] >= values["none"] * 0.99
    )
    result.findings[
        "the full window's relative cost exceeds its capacity share"
    ] = (values["full machine"] / values["none"] - 1.0) > 0.01
    return result
