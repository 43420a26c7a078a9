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
conservative's repack) at every event.  A candidate that cannot start
inside the current plan is *tentatively* started and the plan rebuilt; if
any deadline breaks, the candidate is rejected and the plan restored.
Each admission test costs one repack, so candidate scanning is capped at
``max_candidates`` per pass to bound the worst case — a documented
engineering concession (production slack schedulers bound their scan the
same way).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sched.base import Scheduler
from repro.sched.profile import Profile
from repro.workload.job import Job

__all__ = ["SlackScheduler"]

_EPS = 1e-6


class SlackScheduler(Scheduler):
    """Soft-reservation backfilling with bounded slippage."""

    name = "SLACK"

    def __init__(
        self,
        priority=None,
        *,
        slack_factor: float = 1.0,
        max_candidates: int = 16,
    ) -> None:
        super().__init__(priority)
        if slack_factor < 0:
            raise ConfigurationError(f"slack_factor must be >= 0, got {slack_factor}")
        if max_candidates < 1:
            raise ConfigurationError(
                f"max_candidates must be >= 1, got {max_candidates}"
            )
        self.slack_factor = slack_factor
        self.max_candidates = max_candidates
        self._deadline: dict[int, float] = {}
        self._profile_buffer: Profile | None = None

    def reset(self) -> None:
        self._deadline.clear()
        self._profile_buffer = None

    def _fork_into(self, clone: Scheduler) -> None:
        clone._deadline = dict(self._deadline)
        # The buffer is rebuilt from scratch every pass; never shared.
        clone._profile_buffer = None

    # -- planning helpers ------------------------------------------------------

    def _running_profile(self, now: float, extra: list[tuple[Job, float]]) -> Profile:
        """Occupancy profile of the running set (+``extra`` tentative starts).

        Rebuilds into one reused buffer: every admission test costs a
        replan, so no plan or trial profile outlives the next call.
        """
        machine = self._machine()
        occupancy = [
            (job.procs, start + job.estimate)
            for job, start in list(self._running.values()) + extra
        ]
        profile = self._profile_buffer
        if profile is None:
            profile = self._profile_buffer = self.profile_factory(
                machine.total_procs, origin=now
            )
        profile.rebuild_into(now, occupancy)
        return profile

    def _plan(
        self, now: float, profile: Profile, jobs: list[Job]
    ) -> dict[int, float]:
        """FCFS earliest-feasible plan for ``jobs`` on ``profile``.

        Mutates the given profile; callers rebuild it before each call.
        """
        ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        starts = profile.claim_many(
            [j.procs for j in ordered], [j.estimate for j in ordered], now
        )
        return {job.job_id: start for job, start in zip(ordered, starts)}

    def _deadlines_met(self, plan: dict[int, float]) -> bool:
        return all(
            plan[job_id] <= self._deadline[job_id] + _EPS for job_id in plan
        )

    # -- the scheduling pass ------------------------------------------------------

    def _schedule_pass(self, now: float) -> list[Job]:
        if not self._queue:
            return []
        started: list[Job] = []
        pseudo_running: list[tuple[Job, float]] = []
        committed = 0  # processors of ``pseudo_running``, kept as it grows

        def current_plan() -> dict[int, float]:
            waiting = [j for j in self._queue]
            return self._plan(now, self._running_profile(now, pseudo_running), waiting)

        plan = current_plan()

        # Phase 1: start everything the plan schedules for right now.
        progressed = True
        while progressed:
            progressed = False
            for job in list(self._queue):
                if plan.get(
                    job.job_id, math.inf
                ) <= now + _EPS and self._machine_fits(job, committed):
                    self._dequeue(job)
                    started.append(job)
                    pseudo_running.append((job, now))
                    committed += job.procs
                    self._deadline.pop(job.job_id, None)
                    progressed = True
            if progressed:
                plan = current_plan()

        # Phase 2: slack-checked backfilling in priority order.
        free_procs = self._machine().free_procs
        candidates = self.priority.sort(self._queue, now)[: self.max_candidates]
        for job in candidates:
            if job.procs > free_procs - committed:
                continue
            tentative = [j for j in self._queue if j.job_id != job.job_id]
            trial_profile = self._running_profile(
                now, pseudo_running + [(job, now)]
            )
            trial_plan = self._plan(now, trial_profile, tentative)
            if self._deadlines_met(trial_plan):
                self._dequeue(job)
                started.append(job)
                pseudo_running.append((job, now))
                committed += job.procs
                self._deadline.pop(job.job_id, None)
        return started

    # -- scheduler API ----------------------------------------------------------

    def cancel(self, job: Job, now: float) -> None:
        self._dequeue(job)
        self._deadline.pop(job.job_id, None)

    def poke(self, now: float) -> list[Job]:
        return self._schedule_pass(now)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        # The arrival-time guarantee anchors the job's deadline.
        profile = self._running_profile(now, [])
        waiting = list(self._queue) + [job]
        plan = self._plan(now, profile, waiting)
        guarantee = plan[job.job_id]
        self._deadline[job.job_id] = guarantee + self.slack_factor * job.estimate
        self._enqueue(job)
        return self._schedule_pass(now)

    def on_finish(self, job: Job, now: float) -> list[Job]:
        return self._schedule_pass(now)
