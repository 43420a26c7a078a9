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
from repro.sched.priority.policies import xfactor
from repro.sched.profile import Profile
from repro.sched.reservations import carve_reservations
from repro.workload.job import Job

__all__ = ["SelectiveScheduler"]

_EPS = 1e-6


class SelectiveScheduler(Scheduler):
    """Threshold-based selective reservations (paper Section 6)."""

    name = "SEL"

    supports_advance_reservations = True

    def __init__(
        self,
        priority=None,
        *,
        xfactor_threshold: float = 2.0,
        advance_reservations=(),
    ) -> None:
        super().__init__(priority)
        if not (xfactor_threshold >= 1.0 or math.isinf(xfactor_threshold)):
            raise ConfigurationError(
                f"xfactor_threshold must be >= 1 (or inf), got {xfactor_threshold}"
            )
        self.xfactor_threshold = xfactor_threshold
        self.advance_reservations = tuple(advance_reservations)
        self._reserved_ids: set[int] = set()
        self._profile_buffer: Profile | None = None

    def reset(self) -> None:
        self._reserved_ids.clear()
        self._profile_buffer = None

    def _fork_into(self, clone: Scheduler) -> None:
        clone._reserved_ids = set(self._reserved_ids)
        # The buffer is rebuilt from scratch every pass; never shared.
        clone._profile_buffer = None

    # -- internals ------------------------------------------------------------

    def _update_reserved_set(self, now: float) -> None:
        """Promote queued jobs whose expansion factor crossed the threshold.

        Membership is sticky: once needy, always needy, so a promoted job's
        guarantee cannot be revoked by its own reservation reducing its wait.
        """
        for job in self._queue:
            if job.job_id in self._reserved_ids:
                continue
            if xfactor(job, now) >= self.xfactor_threshold:
                self._reserved_ids.add(job.job_id)

    def _schedule_pass(self, now: float) -> list[Job]:
        if not self._queue:
            return []
        machine = self._machine()
        self._update_reserved_set(now)

        # Rebuild the availability profile from scratch each pass (running
        # jobs occupy processors until their estimated completions), but
        # into a reused buffer: one endpoint sweep, no per-event Profile.
        profile = self._profile_buffer
        if profile is None:
            profile = self._profile_buffer = self.profile_factory(
                machine.total_procs, origin=now
            )
        profile.rebuild_into(
            now,
            [(job.procs, start + job.estimate) for job, start in self._running.values()],
        )
        if self.advance_reservations:
            carve_reservations(profile, self.advance_reservations, now)

        queue = self._ordered_queue(now)
        started: list[Job] = []

        # Give the needy jobs reservations, in priority order.
        needy = [job for job in queue if job.job_id in self._reserved_ids]
        reservations = {
            job.job_id: start
            for job, start in zip(
                needy,
                profile.claim_many(
                    [j.procs for j in needy], [j.estimate for j in needy], now
                ),
            )
        }

        # One batched min_free prefilters the unreserved candidates (see
        # DepthScheduler._schedule_pass: False is definitive because free
        # counts only shrink; True is re-verified once a same-pass reserve
        # has dirtied the profile).
        mins = (
            profile.min_free_many([j.estimate for j in queue], now)
            if len(queue) > len(needy)
            else []  # every queued job holds a reservation: nothing to filter
        )
        dirty = False

        # Start whatever can run immediately without disturbing reservations.
        committed = 0
        for i, job in enumerate(queue):
            if job.job_id in reservations:
                if reservations[job.job_id] <= now + _EPS and self._machine_fits(
                    job, committed
                ):
                    self._dequeue(job)
                    started.append(job)
                    self._reserved_ids.discard(job.job_id)
                    committed += job.procs
            else:
                if mins[i] < job.procs:
                    continue
                fits_profile = not dirty or (
                    profile.min_free(now, job.estimate) >= job.procs
                )
                if fits_profile and self._machine_fits(job, committed):
                    profile.reserve(job.procs, now, job.estimate)
                    dirty = True
                    self._dequeue(job)
                    started.append(job)
                    committed += job.procs
        return started

    # -- scheduler API ----------------------------------------------------------

    def cancel(self, job: Job, now: float) -> None:
        self._dequeue(job)
        self._reserved_ids.discard(job.job_id)

    def poke(self, now: float) -> list[Job]:
        return self._schedule_pass(now)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        self._enqueue(job)
        return self._schedule_pass(now)

    def on_finish(self, job: Job, now: float) -> list[Job]:
        return self._schedule_pass(now)
