"""Reservation-depth backfilling: the EASY ↔ conservative continuum.

The paper frames conservative and EASY as opposite poles: reservations
for *everybody* vs for the *head only*.  Production schedulers (Maui's
``RESERVATIONDEPTH``) expose the spectrum in between: the first K jobs of
the priority queue hold reservations, everyone else backfills around
them.

* ``depth = 1`` behaves like EASY (single reservation; the backfill
  admission test is the availability profile rather than EASY's
  shadow/extra pair, so schedules can differ in edge cases — the profile
  also sees the hole *after* the head's estimated completion);
* ``depth >= queue length`` is exactly selective backfilling at threshold
  1.0, i.e. conservative repack (verified by tests).

Implementation mirrors :class:`~repro.sched.backfill.selective.
SelectiveScheduler`: the availability profile is rebuilt from the running
set at every scheduling event, the top-K priority jobs claim
earliest-feasible reservations, and the rest may start only where the
profile shows room.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sched.base import Scheduler
from repro.sched.profile import Profile
from repro.sched.reservations import carve_reservations
from repro.workload.job import Job

__all__ = ["DepthScheduler"]

_EPS = 1e-6


class DepthScheduler(Scheduler):
    """Reservations for the first ``depth`` queued jobs (see module docs)."""

    name = "DEPTH"

    supports_advance_reservations = True

    def __init__(self, priority=None, *, depth: int = 1, advance_reservations=()) -> None:
        super().__init__(priority)
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.advance_reservations = tuple(advance_reservations)
        self._profile_buffer: Profile | None = None

    def reset(self) -> None:
        self._profile_buffer = None

    def _fork_into(self, clone: Scheduler) -> None:
        # The buffer is rebuilt from scratch every pass; never shared.
        clone._profile_buffer = None

    def describe(self) -> str:
        return f"{self.name}({self.priority.name}, k={self.depth})"

    def _schedule_pass(self, now: float) -> list[Job]:
        if not self._queue:
            return []
        machine = self._machine()
        # The plan is rebuilt from scratch each pass, but into a reused
        # buffer: one endpoint sweep, no per-event Profile.
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

        head = queue[: self.depth]
        reservations = {
            job.job_id: start
            for job, start in zip(
                head,
                profile.claim_many(
                    [j.procs for j in head], [j.estimate for j in head], now
                ),
            )
        }

        # One batched min_free over the post-claim profile prefilters
        # the unreserved backfill candidates: free counts only shrink as
        # this pass reserves, so a failing window here is definitively
        # infeasible and the job needs no per-job kernel call at all.  A
        # passing window is exact until the first same-pass reserve
        # (``dirty``), after which it is re-verified scalar-wise.
        mins = (
            profile.min_free_many([j.estimate for j in queue], now)
            if len(queue) > len(head)
            else []  # every queued job holds a reservation: nothing to filter
        )
        dirty = False

        committed = 0
        for i, job in enumerate(queue):
            if job.job_id in reservations:
                if reservations[job.job_id] <= now + _EPS and self._machine_fits(
                    job, committed
                ):
                    self._dequeue(job)
                    started.append(job)
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

    def poke(self, now: float) -> list[Job]:
        return self._schedule_pass(now)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        self._enqueue(job)
        return self._schedule_pass(now)

    def on_finish(self, job: Job, now: float) -> list[Job]:
        return self._schedule_pass(now)
