"""Conservative backfilling (Mu'alem & Feitelson 2001).

Every job receives a start-time *reservation* the moment it arrives, at the
earliest point in the availability profile where its
``procs x estimated-runtime`` rectangle fits without moving any existing
reservation.  A later-arriving job may therefore "backfill" into an earlier
hole, but never at the cost of delaying a previously queued job — the
defining guarantee of the scheme.

When a job completes *early* (actual runtime < estimate) a hole opens in
the profile.  Following the paper's description (Section 4.1), queued jobs
are then reconsidered **in priority order**: each may move its reservation
earlier if a better slot now exists.  Under the ``none``, ``startonly``
and ``full`` compressions a reservation is never moved later, preserving
the start-time guarantee; the default ``repack`` re-plans every
reservation against the present (through :mod:`repro.sched.plan`) and
can move one later — 5-15 of 500 jobs on the CTC workloads — so it
bounds delay statistically, not as a guarantee (see the class
docstring).  In every mode, with exact user estimates all priority
policies produce the *identical* schedule — no early completions means
no holes, so the priority order is never consulted (the paper's
priority-equivalence observation, verified by our tests).
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.sched.base import Scheduler
from repro.sched.plan import PlanningScheduler
from repro.sched.profile import Profile
from repro.sched.reservations import carve_reservations
from repro.sched.tol import EPS_DUE as _EPS
from repro.workload.job import Job

__all__ = ["ConservativeScheduler"]


class ConservativeScheduler(PlanningScheduler):
    """Reservation-per-job backfilling with a pluggable priority policy.

    ``compression`` selects what happens when an early completion opens a
    hole in the profile:

    * ``"repack"`` (default, the paper's behaviour) — the whole set of
      queued reservations is rebuilt against the *current* machine state,
      in priority order; jobs whose fresh reservation is *now* start
      immediately.  Re-anchoring reservations to the present is what makes
      them act as the near-term "roofs" the paper describes: they block
      later jobs from backfilling easily, which is exactly why conservative
      deteriorates under inaccurate estimates (paper Section 5.2).  Note
      that a rebuilt reservation can land *later* than the one given at
      arrival — once another job's occupancy has shifted earlier, an old
      guarantee window may be genuinely infeasible — so repack bounds delay
      statistically (the paper's Tables 4/7) rather than as a hard
      guarantee.  The priority order is consulted only on early
      completions, so with exact estimates all priorities still produce
      identical schedules (the paper's Section 4.1 equivalence).
    * ``"startonly"`` — queued jobs are considered for an immediate start
      into the hole, in priority order; all untouched reservations keep
      their original (stale, estimate-inflated) positions.  An ablation:
      stale far-future reservations barely constrain the near term, so this
      variant behaves like an aggressive greedy packer.
    * ``"full"`` — like ``"startonly"`` but jobs that cannot start now may
      still move their future reservation earlier (never later).
    * ``"none"`` — holes are released but never refilled early; jobs start
      only at their original guaranteed times.  Lower bound for ablations.
    """

    name = "CONS"

    supports_advance_reservations = True

    COMPRESSION_MODES = ("none", "startonly", "full", "repack")

    def __init__(
        self,
        priority=None,
        *,
        compression: str = "repack",
        advance_reservations=(),
    ) -> None:
        super().__init__(priority)
        if compression not in self.COMPRESSION_MODES:
            raise SchedulingError(
                f"unknown compression mode {compression!r}; "
                f"expected one of {self.COMPRESSION_MODES}"
            )
        self.compression = compression
        self.advance_reservations = tuple(advance_reservations)
        self._reservation_start: dict[int, float] = {}
        self._running_resv_end: dict[int, float] = {}

    def reset(self) -> None:
        super().reset()
        self._reservation_start.clear()
        self._running_resv_end.clear()

    def _fork_into(self, clone: Scheduler) -> None:
        super()._fork_into(clone)
        clone._reservation_start = dict(self._reservation_start)
        clone._running_resv_end = dict(self._running_resv_end)

    # -- internals ---------------------------------------------------------------

    def _profile_at(self, now: float) -> Profile:
        if self._profile is None:
            self._profile = self.profile_factory(self._machine().total_procs, origin=now)
            if self.advance_reservations:
                carve_reservations(self._profile, self.advance_reservations, now)
        else:
            self._profile.advance(now)
        return self._profile

    def _start_now(self, job: Job, now: float, started: list[Job]) -> None:
        """Move a job whose reservation is due from queued to started.

        Its profile usage [now, now + estimate) stays in place: it models
        the running job's processor occupancy through its estimate.  Timer
        wakeups fire at the exact reservation floats, so a due job's
        reservation normally equals ``now`` exactly; if it ever differs
        (which would desynchronize profile and machine accounting) the
        reservation tail is explicitly re-aligned — loudly failing rather
        than silently corrupting if the shifted slot does not fit.
        """
        started.append(job)
        resv_start = self._reservation_start.pop(job.job_id, None)
        if resv_start is not None and resv_start != now and self._profile is not None:
            remaining = resv_start + job.estimate - now
            if remaining > 0:
                self._profile.release(job.procs, now, remaining)
            self._profile.reserve(job.procs, now, job.estimate)
        self._running_resv_end[job.job_id] = now + job.estimate

    def cancel(self, job: Job, now: float) -> None:
        """Withdraw a queued job and free its reservation (no pass —
        the grid engine calls :meth:`poke` after all withdrawals)."""
        self._dequeue(job)
        start = self._reservation_start.pop(job.job_id, None)
        if start is None:
            return
        if start < now - _EPS:
            raise SchedulingError(
                f"{self.name}: cancelled job {job.job_id} held a stale "
                f"reservation at {start} < now={now}"
            )
        profile = self._profile_at(now)
        profile.release(job.procs, start, job.estimate)

    def poke(self, now: float) -> list[Job]:
        """Refill holes after withdrawals using the configured compression."""
        started: list[Job] = []
        if self.compression == "repack":
            self._repack(now, started)
        elif self.compression in ("startonly", "full"):
            self._profile_at(now)
            self._backfill_pass(now, started, move_future=self.compression == "full")
        else:
            self._profile_at(now)
            self._start_due(now, started)
        return started

    def reservation_of(self, job_id: int) -> float:
        """Current guaranteed start time of a queued job (for tests/inspection)."""
        try:
            return self._reservation_start[job_id]
        except KeyError:
            raise SchedulingError(f"job {job_id} holds no reservation") from None

    # -- scheduler API ---------------------------------------------------------

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        profile = self._profile_at(now)
        start = profile.claim(job.procs, job.estimate, now)
        started: list[Job] = []
        if start <= now + _EPS and self._machine_fits(job):
            self._start_now(job, now, started)
        else:
            self._enqueue(job)
            self._reservation_start[job.job_id] = start
            self.request_wakeup(start)
        return started

    def on_wakeup(self, now: float) -> list[Job]:
        """A reservation may have come due at a time with no job event."""
        self._profile_at(now)
        started: list[Job] = []
        self._start_due(now, started)
        return started

    def on_finish(self, job: Job, now: float) -> list[Job]:
        resv_end = self._running_resv_end.pop(job.job_id, None)
        if resv_end is None:
            raise SchedulingError(
                f"{self.name}: finished job {job.job_id} has no recorded reservation"
            )
        finished_early = resv_end > now + _EPS
        started: list[Job] = []

        if self.compression == "repack":
            # Repack rebuilds the profile from the surviving running set, so
            # it neither needs nor tolerates an explicit tail release: with
            # several completions at one timestamp, the first repack already
            # dropped the later finishers' occupancy (the engine notifies
            # all releases before any reaction runs).
            if finished_early:
                self._repack(now, started)
            else:
                # Incremental-repack short-circuit: a job that finishes
                # exactly at its estimate releases processors at precisely
                # the horizon the profile already encodes, so rebuilding
                # would reproduce the advanced profile bit for bit.  Skip
                # the rebuild + re-claim entirely and only start the jobs
                # whose reservations are due (DESIGN.md §14) — with exact
                # user estimates (half the paper's grid) NO finish ever
                # repacks.
                self._profile_at(now)
                self._start_due(now, started)
            return started

        profile = self._profile_at(now)
        if finished_early:
            # Open the hole: release the unused tail of the estimate.
            profile.release(job.procs, now, resv_end - now)
        if finished_early and self.compression in ("startonly", "full"):
            self._backfill_pass(now, started, move_future=self.compression == "full")
        else:
            # Even without compression, reservations that are due must start.
            self._start_due(now, started)
        return started

    def _start_due(self, now: float, started: list[Job]) -> None:
        """Start every queued job whose reservation time has arrived."""
        committed = sum(j.procs for j in started)
        for queued in self._ordered_queue(now):
            if self._reservation_start[
                queued.job_id
            ] <= now + _EPS and self._machine_fits(queued, committed):
                self._dequeue(queued)
                self._start_now(queued, now, started)
                committed += queued.procs
        # Re-arm the next pending reservation: the repack arms only the
        # *earliest* reservation instead of one timer per queued job, so
        # consuming the due timer must arm the next one, or later
        # reservations would only be serviced by coincidental job events
        # (the engine dedupes by exact time, so re-requesting an
        # already-armed time is a no-op).
        if self._reservation_start:
            self.request_wakeup(min(self._reservation_start.values()))

    def _repack(self, now: float, started: list[Job]) -> None:
        """Rebuild every queued reservation against the current state.

        The profile is reconstructed from the running jobs' estimated
        remainders, then queued jobs claim earliest-feasible slots in
        priority order (the shared ``_replan``).  Jobs whose fresh slot is
        *now* start immediately (their usage stays in the profile as
        running occupancy).
        """
        ordered = self._ordered_queue(now)
        _, starts = self._replan(now, self._occupancy(), ordered)
        committed = sum(j.procs for j in started)
        wake = None
        for queued, start in zip(ordered, starts):
            self._reservation_start[queued.job_id] = start
            if start <= now + _EPS and self._machine_fits(queued, committed):
                # A due claim the machine can host is anchored at ``now``
                # exactly, so _start_now leaves the profile (and with it
                # the rest of the batch) untouched: rebuild_into puts every
                # other breakpoint at least _EPS after ``now``, so a start
                # inside (now, now + _EPS] is the first breakpoint after
                # ``now`` — chosen only when segment 0, i.e. the machine,
                # lacks the processors.
                self._dequeue(queued)
                self._start_now(queued, now, started)
                committed += queued.procs
            elif wake is None or start < wake:
                # One timer at the earliest reservation covers the whole
                # queue — _start_due re-arms the next one when it fires,
                # and any repack before then re-plans everything anyway
                # (see DESIGN.md §14).
                wake = start
        if wake is not None:
            self.request_wakeup(wake)

    def _backfill_pass(self, now: float, started: list[Job], *, move_future: bool) -> None:
        """Reconsider queued jobs in priority order after a hole opened.

        A job whose rectangle fits immediately starts now.  With
        ``move_future`` (the "full" compression ablation) jobs that cannot
        start may still move their reservation earlier.  Reservations never
        move later, so previously given guarantees survive.
        """
        profile = self._profile_at(now)
        committed = sum(j.procs for j in started)
        for queued in self._ordered_queue(now):
            old_start = self._reservation_start[queued.job_id]
            if old_start < now - _EPS:
                raise SchedulingError(
                    f"{self.name}: stale reservation at {old_start} < now={now} "
                    f"for job {queued.job_id}"
                )
            if old_start <= now + _EPS:
                # Its guaranteed time has arrived; it starts as soon as the
                # machine physically fits it (the next finish re-runs this).
                if self._machine_fits(queued, committed):
                    self._dequeue(queued)
                    self._start_now(queued, now, started)
                    committed += queued.procs
                continue
            profile.release(queued.procs, old_start, queued.estimate)
            new_start = profile.find_start(queued.procs, queued.estimate, now)
            if new_start <= now + _EPS:
                # A due slot the machine cannot physically host yet is no
                # slot: keep the old guarantee rather than a past-dated one.
                if self._machine_fits(queued, committed):
                    chosen = new_start
                else:
                    chosen = old_start
            elif move_future and new_start < old_start - _EPS:
                chosen = new_start
            else:
                chosen = old_start
            profile.reserve(queued.procs, chosen, queued.estimate)
            self._reservation_start[queued.job_id] = chosen
            if chosen <= now + _EPS and self._machine_fits(queued, committed):
                self._dequeue(queued)
                self._start_now(queued, now, started)
                committed += queued.procs
            elif chosen != old_start:
                self.request_wakeup(chosen)
