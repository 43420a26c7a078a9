"""Slack-based backfilling (Talby & Feitelson 1999, cited by the paper).

A middle ground between conservative and EASY along a different axis than
selective backfilling: *every* job holds a reservation (as in
conservative), but reservations are soft — each may slip by a bounded
*slack* proportional to the job's estimate.  A backfill is admitted only
if, after re-planning, every queued job still starts before

    ``deadline = arrival-time guarantee + slack_factor x estimate``.

``slack_factor = 0`` never admits a delaying backfill — the schedule then
coincides exactly with conservative backfilling in ``repack`` mode under
FCFS (verified by tests); large factors approach unconstrained first-fit.

Like every replanning scheduler, the deadline gates *admission decisions*
against the information available at that moment: as early completions
re-shape the plan, a job's planned start can still drift past the deadline
computed at its arrival (the same statistical — not hard — bound as
conservative repack; see ConservativeScheduler's docstring).

Implementation: the schedule is re-planned (FCFS earliest-feasible, like
conservative's repack, through the reservation family's shared core in
:mod:`repro.sched.plan`) at every event.  A candidate that cannot start
inside the current plan is *tentatively* started and the plan rebuilt; if
any deadline breaks, the candidate is rejected.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sched.base import Scheduler
from repro.sched.plan import PlanningScheduler
from repro.sched.tol import EPS_DUE as _EPS
from repro.workload.job import Job

__all__ = ["SlackScheduler"]

#: Candidates scanned per pass.  Each admission test costs one replan of
#: the whole queue, so the cap bounds the quadratic worst case — a
#: documented engineering concession (production slack schedulers bound
#: their scan the same way).
MAX_CANDIDATES = 16


class SlackScheduler(PlanningScheduler):
    """Soft-reservation backfilling with bounded slippage."""

    name = "SLACK"

    def __init__(self, priority=None, *, slack_factor: float = 1.0) -> None:
        super().__init__(priority)
        if slack_factor < 0:
            raise ConfigurationError(f"slack_factor must be >= 0, got {slack_factor}")
        self.slack_factor = slack_factor
        self._deadline: dict[int, float] = {}

    def reset(self) -> None:
        super().reset()
        self._deadline.clear()

    def _fork_into(self, clone: Scheduler) -> None:
        super()._fork_into(clone)
        clone._deadline = dict(self._deadline)

    # -- planning helpers ------------------------------------------------------

    def _plan(self, now: float, jobs: list[Job], starting=()) -> dict[int, float]:
        """FCFS earliest-feasible plan for ``jobs`` at ``now``.

        The running set, plus the ``starting`` jobs tentatively started
        now, occupies the machine.  Every admission test costs a replan
        on the one profile, so no plan outlives the next call.
        """
        ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        _, starts = self._replan(now, self._occupancy(now, starting), ordered)
        return {job.job_id: start for job, start in zip(ordered, starts)}

    def _deadlines_met(self, plan: dict[int, float]) -> bool:
        return all(
            plan[job_id] <= self._deadline[job_id] + _EPS for job_id in plan
        )

    # -- the scheduling pass ------------------------------------------------------

    def _schedule_pass(
        self, now: float, started: list[Job], plan: dict[int, float] | None = None
    ) -> None:
        """One pass; ``plan`` is the queue's current plan if the caller
        already made it (an arrival plans the queue for its guarantee)."""
        if not self._queue:
            return
        committed = sum(job.procs for job in started)  # kept as it grows

        # Phase 1: start everything the plan schedules for right now.
        if plan is None:
            plan = self._plan(now, self._queue, started)
        progressed = True
        while progressed:
            progressed = False
            for job in list(self._queue):
                if plan[job.job_id] <= now + _EPS and self._machine_fits(
                    job, committed
                ):
                    self._dequeue(job)
                    started.append(job)
                    committed += job.procs
                    self._deadline.pop(job.job_id, None)
                    progressed = True
            if progressed:
                plan = self._plan(now, self._queue, started)

        # Phase 2: slack-checked backfilling in priority order.
        free_procs = self._machine().free_procs
        for job in self._ordered_queue(now)[:MAX_CANDIDATES]:
            if job.procs > free_procs - committed:
                continue
            tentative = [j for j in self._queue if j.job_id != job.job_id]
            trial_plan = self._plan(now, tentative, started + [job])
            if self._deadlines_met(trial_plan):
                self._dequeue(job)
                started.append(job)
                committed += job.procs
                self._deadline.pop(job.job_id, None)

    # -- scheduler API ----------------------------------------------------------

    def cancel(self, job: Job, now: float) -> None:
        self._dequeue(job)
        self._deadline.pop(job.job_id, None)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        # The arrival-time guarantee anchors the job's deadline.  The plan
        # is the one of the queue the job joins, so the pass reuses it.
        plan = self._plan(now, self._queue + [job])
        self._deadline[job.job_id] = plan[job.job_id] + self.slack_factor * job.estimate
        self._enqueue(job)
        started: list[Job] = []
        self._schedule_pass(now, started, plan)
        return started

