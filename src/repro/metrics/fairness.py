"""Fairness metrics for schedule comparison.

Backfilling trades fairness for utilization: a job may be overtaken by
later arrivals.  The paper's group quantified this in follow-up work
(Sabin & Sadayappan, "Unfairness in parallel job scheduling"); this module
implements the practical core of that methodology:

* :func:`start_time_deviations` — per-job start-time difference between a
  schedule and a *reference* schedule of the same workload (conventionally
  strict FCFS space sharing, under which nobody is ever overtaken);
* :func:`fairness_report` — aggregate unfairness measures: how many jobs
  were served later than the reference, by how much, and the benefit side
  (jobs served earlier) for context.

A scheduler with zero "unfair delay" never makes any job worse off than
the no-backfill baseline; EASY and conservative both do, in different
places — that asymmetry is exactly the category-wise story of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.metrics.collector import RunMetrics
from repro.sim.engine import SimulationResult

__all__ = ["FairnessReport", "start_time_deviations", "fairness_report"]

#: A schedule as a simulation result or as the metrics of one (a cell's).
Schedule = SimulationResult | RunMetrics


def start_time_deviations(
    schedule: Schedule,
    reference: Schedule,
) -> dict[int, float]:
    """Per-job ``start(schedule) - start(reference)`` in seconds.

    Positive values mean the job started *later* than under the reference
    policy (it was effectively overtaken); negative values mean it
    benefited.  Both schedules must cover the same job ids; either may
    be a :class:`SimulationResult` or its :class:`RunMetrics`.
    """
    mine = schedule.start_times()
    theirs = reference.start_times()
    if set(mine) != set(theirs):
        missing = set(mine).symmetric_difference(theirs)
        raise ReproError(
            f"schedules cover different jobs (symmetric difference: "
            f"{sorted(missing)[:10]} ...)"
        )
    return {job_id: mine[job_id] - theirs[job_id] for job_id in mine}


@dataclass(frozen=True)
class FairnessReport:
    """Aggregate unfairness of a schedule against a reference."""

    jobs: int
    delayed_count: int  # started later than the reference
    advanced_count: int  # started earlier
    mean_unfair_delay: float  # mean positive deviation over *delayed* jobs
    max_unfair_delay: float
    mean_benefit: float  # mean |negative deviation| over advanced jobs
    net_mean_deviation: float  # mean signed deviation over all jobs

    @property
    def delayed_fraction(self) -> float:
        return self.delayed_count / self.jobs if self.jobs else 0.0


def fairness_report(
    schedule: Schedule,
    reference: Schedule,
    *,
    tolerance: float = 1e-6,
) -> FairnessReport:
    """Summarize :func:`start_time_deviations` into a :class:`FairnessReport`."""
    deviations = start_time_deviations(schedule, reference)
    if not deviations:
        raise ReproError("cannot compute fairness of an empty schedule")
    delayed = [d for d in deviations.values() if d > tolerance]
    advanced = [-d for d in deviations.values() if d < -tolerance]
    return FairnessReport(
        jobs=len(deviations),
        delayed_count=len(delayed),
        advanced_count=len(advanced),
        mean_unfair_delay=sum(delayed) / len(delayed) if delayed else 0.0,
        max_unfair_delay=max(delayed) if delayed else 0.0,
        mean_benefit=sum(advanced) / len(advanced) if advanced else 0.0,
        net_mean_deviation=sum(deviations.values()) / len(deviations),
    )
