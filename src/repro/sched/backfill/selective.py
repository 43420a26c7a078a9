"""Selective backfilling (the paper's Section 6 proposal).

The paper's conclusion observes that conservative backfilling is
*non-selectively* generous with reservations (limiting backfill
opportunity) while EASY is non-selectively stingy (unbounded worst-case
delay for jobs that cannot backfill), and proposes a middle ground:

    "jobs do not get reservation until their expected slowdown exceeds some
    threshold, whereupon they get a reservation ... few jobs should have
    reservations at any time, but the most needy of jobs get assured
    reservations."

This scheduler implements that proposal (elaborated by the same authors in
"Selective Reservation Strategies for Backfill Job Scheduling", JSSPP
2002).  A queued job's *expected slowdown* is its expansion factor
``(wait + estimate) / estimate``.  Once a job's expansion factor crosses
``xfactor_threshold`` it permanently joins the reserved set; reserved jobs
get earliest-feasible reservations (in priority order) and unreserved jobs
may backfill only into holes that delay no reservation.

With ``xfactor_threshold = 1.0`` every job is reserved on arrival
(conservative-like); with ``xfactor_threshold = inf`` no job ever is
(EASY without even the head reservation, i.e. pure first-fit).  The
ablation experiment sweeps the threshold between these extremes.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sched.base import Scheduler
from repro.sched.plan import PartialReservationScheduler
from repro.sched.priority.policies import xfactor
from repro.workload.job import Job

__all__ = ["SelectiveScheduler"]


class SelectiveScheduler(PartialReservationScheduler):
    """Threshold-based selective reservations (paper Section 6)."""

    name = "SEL"

    def __init__(
        self,
        priority=None,
        *,
        xfactor_threshold: float = 2.0,
        advance_reservations=(),
    ) -> None:
        super().__init__(priority, advance_reservations=advance_reservations)
        if not (xfactor_threshold >= 1.0 or math.isinf(xfactor_threshold)):
            raise ConfigurationError(
                f"xfactor_threshold must be >= 1 (or inf), got {xfactor_threshold}"
            )
        self.xfactor_threshold = xfactor_threshold
        self._reserved_ids: set[int] = set()

    def reset(self) -> None:
        super().reset()
        self._reserved_ids.clear()

    def _fork_into(self, clone: Scheduler) -> None:
        super()._fork_into(clone)
        clone._reserved_ids = set(self._reserved_ids)

    def _reserved(self, queue: list[Job], now: float) -> list[Job]:
        """The needy jobs: promote whoever crossed the threshold, keep the rest.

        Membership is sticky: once needy, always needy, so a promoted job's
        guarantee cannot be revoked by its own reservation reducing its wait.
        """
        needy = self._reserved_ids
        for job in queue:
            if job.job_id not in needy and xfactor(job, now) >= self.xfactor_threshold:
                needy.add(job.job_id)
        return [job for job in queue if job.job_id in needy]

    def _reservation_started(self, job: Job) -> None:
        self._reserved_ids.discard(job.job_id)

    def cancel(self, job: Job, now: float) -> None:
        self._dequeue(job)
        self._reserved_ids.discard(job.job_id)
