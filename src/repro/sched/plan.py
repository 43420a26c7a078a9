"""One replanning core for the reservation family.

The paper's axis is *who holds a reservation*: everybody (conservative),
the head only (EASY), or "the most needy" in between (its Section 6
proposal).  Conservative, selective, depth and slack walk that axis on an
availability profile, and all four re-plan the same way: reload the
profile with the running jobs' estimated remainders, carve the advance
reservations, and let the reservation holders claim earliest-feasible
slots in order.  That sequence lives here once, with the one profile it
runs on (:class:`PlanningScheduler`); so does the one scheduling pass in
which only *some* queued jobs are reserved
(:class:`PartialReservationScheduler`).  What a discipline adds is
policy: who holds a reservation, and what admission test the others face
(DESIGN.md section 3, "The reservation family").
"""

from __future__ import annotations

from abc import abstractmethod

from repro.sched.base import Scheduler
from repro.sched.profile import Profile
from repro.sched.reservations import carve_reservations
from repro.sched.tol import EPS_DUE as _EPS
from repro.workload.job import Job

__all__ = ["PlanningScheduler", "PartialReservationScheduler"]


class PlanningScheduler(Scheduler):
    """A discipline that plans reservations on one availability profile."""

    def __init__(self, priority=None) -> None:
        super().__init__(priority)
        self._profile: Profile | None = None

    def reset(self) -> None:
        self._profile = None

    def _fork_into(self, clone: Scheduler) -> None:
        clone._profile = None if self._profile is None else self._profile.fork()

    def _occupancy(self) -> list[tuple[int, float]]:
        """``(procs, estimated finish)`` of every running job."""
        return [(job.procs, start + job.estimate) for job, start in self._running.values()]

    def _replan(
        self, now: float, occupancy: list[tuple[int, float]], jobs: list[Job]
    ) -> tuple[Profile, list[float]]:
        """Rebuild the plan at ``now``; return the profile and ``jobs``' starts.

        The profile is reconstructed from ``occupancy`` (running jobs hold
        their processors until their estimated completions), advance
        reservations are carved out, then ``jobs`` claim earliest-feasible
        slots in the order given.  The rebuild reloads the one profile the
        scheduler holds in a single endpoint sweep, no per-event
        ``Profile``: this runs on every scheduling event (for conservative,
        every early completion) and is the kernel's hottest path.
        """
        profile = self._profile
        if profile is None:
            profile = self._profile = self.profile_factory(
                self._machine().total_procs, origin=now
            )
        profile.rebuild_into(now, occupancy)
        if self.advance_reservations:
            carve_reservations(profile, self.advance_reservations, now)
        starts = profile.claim_many(
            [job.procs for job in jobs], [job.estimate for job in jobs], now
        )
        return profile, starts


class PartialReservationScheduler(PlanningScheduler):
    """Some queued jobs hold reservations; the rest backfill around them.

    The plan is rebuilt from the running set at every scheduling event,
    the jobs :meth:`_reserved` names claim earliest-feasible reservations
    in priority order, and everyone else may start only where the
    profile shows room.
    """

    supports_advance_reservations = True

    def __init__(self, priority=None, *, advance_reservations=()) -> None:
        super().__init__(priority)
        self.advance_reservations = tuple(advance_reservations)

    @abstractmethod
    def _reserved(self, queue: list[Job], now: float) -> list[Job]:
        """The jobs of the priority-ordered ``queue`` that hold reservations."""

    def _reservation_started(self, job: Job) -> None:
        """Hook: a reserved job is leaving the queue to start."""

    def _schedule_pass(self, now: float) -> list[Job]:
        if not self._queue:
            return []
        queue = self._ordered_queue(now)
        reserved = self._reserved(queue, now)
        profile, starts = self._replan(now, self._occupancy(), reserved)
        reservations = {job.job_id: start for job, start in zip(reserved, starts)}

        # One batched min_free over the post-claim profile prefilters
        # the unreserved backfill candidates: free counts only shrink as
        # this pass reserves, so a failing window here is definitively
        # infeasible and the job needs no per-job kernel call at all.  A
        # passing window is exact until the first same-pass reserve
        # (``dirty``), after which it is re-verified scalar-wise.
        mins = (
            profile.min_free_many([job.estimate for job in queue], now)
            if len(queue) > len(reserved)
            else []  # every queued job holds a reservation: nothing to filter
        )
        dirty = False

        # Start whatever can run immediately without disturbing reservations.
        started: list[Job] = []
        committed = 0
        for i, job in enumerate(queue):
            reservation = reservations.get(job.job_id)
            if reservation is not None:
                if reservation <= now + _EPS and self._machine_fits(job, committed):
                    self._dequeue(job)
                    started.append(job)
                    self._reservation_started(job)
                    committed += job.procs
            elif mins[i] >= job.procs:
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

    def poke(self, now: float) -> list[Job]:
        return self._schedule_pass(now)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        self._enqueue(job)
        return self._schedule_pass(now)

    def on_finish(self, job: Job, now: float) -> list[Job]:
        return self._schedule_pass(now)
