"""Aggressive (EASY) backfilling (Lifka 1995; Skovira et al. 1996).

Only the job at the head of the priority queue holds a reservation.  At
every scheduling event:

1. Start jobs in priority order while they fit.
2. If the head is blocked, compute its *shadow time* — the earliest time
   enough processors will be free, assuming running jobs hold their
   processors until their **estimated** completions — and the *extra*
   processors left over once the head starts.
3. Walk the rest of the queue in priority order and start (backfill) any
   job that fits now and either (a) will finish by the shadow time, or
   (b) uses no more than the extra processors.  Neither kind can delay the
   head's reserved start.

Because later jobs get no reservation at all, a wide job can be overtaken
indefinitely until it reaches the head — the source of the unbounded
worst-case turnaround the paper reports in Tables 4 and 7.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.sched.base import Scheduler
from repro.sched.tol import EPS_SNAP as _EPS
from repro.workload.job import Job

__all__ = ["EasyScheduler"]


class EasyScheduler(Scheduler):
    """EASY / aggressive backfilling with a pluggable priority policy."""

    name = "EASY"

    #: (head_job_id, free_procs) -> (shadow, extra), reused across events
    #: that change neither the running set nor the blocked head.  Safe
    #: because a running job always has ``start + estimate > now``
    #: (runtimes are capped at estimates and releases are processed before
    #: scheduler reactions), so the shadow is a function of (head, free,
    #: running set) only — not of ``now``.  Class-level default so the
    #: invalidation hooks work pre-bind().
    _shadow_cache: tuple[tuple[int, int], tuple[float, int]] | None = None

    def reset(self) -> None:
        self._shadow_cache = None

    def _fork_into(self, clone: Scheduler) -> None:
        # The shadow memo is a pure cache keyed on state the clone shares;
        # dropping it is always safe and the first pass rebuilds it.
        clone._shadow_cache = None

    def notify_started(self, job: Job, now: float) -> None:
        super().notify_started(job, now)
        self._shadow_cache = None

    def notify_finished(self, job: Job, now: float) -> None:
        super().notify_finished(job, now)
        self._shadow_cache = None

    def _shadow_cached(
        self,
        head: Job,
        now: float,
        free: int,
        pseudo_running: list[tuple[Job, float]],
        cacheable: bool,
    ) -> tuple[float, int]:
        """Memoized :meth:`_shadow`; only consulted when ``cacheable``
        (no same-pass starts, so ``pseudo_running`` is exactly the
        notified running set the invalidation hooks track)."""
        if not cacheable:
            return self._shadow(head, now, free, pseudo_running)
        key = (head.job_id, free)
        cached = self._shadow_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        result = self._shadow(head, now, free, pseudo_running)
        self._shadow_cache = (key, result)
        return result

    def _shadow(
        self,
        head: Job,
        now: float,
        free: int,
        pseudo_running: list[tuple[Job, float]],
    ) -> tuple[float, int]:
        """Shadow time and extra processors for the blocked ``head``.

        ``pseudo_running`` includes jobs started earlier in this same pass.
        Running jobs are assumed to release processors at ``start +
        estimate``; with estimates always >= actual runtimes this is a safe
        (conservative) bound, so the head can never be delayed past the
        shadow by a backfill decision.
        """
        releases = sorted(
            (max(start + job.estimate, now), job.procs)
            for job, start in pseudo_running
        )
        available = free
        for finish, procs in releases:
            available += procs
            if available >= head.procs:
                return finish, available - head.procs
        raise SchedulingError(
            f"{self.name}: job {head.job_id} ({head.procs} procs) can never "
            f"start — machine too small or accounting bug"
        )

    def _schedule_pass(self, now: float) -> list[Job]:
        machine = self._machine()
        free = machine.free_procs
        started: list[Job] = []

        queue = self._ordered_queue(now)

        # Phase 1: start in priority order while the head fits.
        while queue and queue[0].procs <= free:
            job = queue.pop(0)
            self._dequeue(job)
            started.append(job)
            free -= job.procs
        if not queue:
            return started

        # Phase 2: the head is blocked; give it the one reservation.
        head = queue[0]
        pseudo_running = list(self._running.values()) + [
            (job, now) for job in started
        ]
        shadow, extra = self._shadow_cached(
            head, now, free, pseudo_running, cacheable=not started
        )

        # Phase 3: backfill the remainder of the queue in priority order.
        for job in queue[1:]:
            if job.procs > free:
                continue
            finishes_by_shadow = now + job.estimate <= shadow + _EPS
            if finishes_by_shadow or job.procs <= extra:
                self._dequeue(job)
                started.append(job)
                free -= job.procs
                if not finishes_by_shadow:
                    extra -= job.procs
        return started

    def poke(self, now: float) -> list[Job]:
        # A withdrawn head hands its reservation to the next job.
        return self._schedule_pass(now)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        self._enqueue(job)
        return self._schedule_pass(now)

    def on_finish(self, job: Job, now: float) -> list[Job]:
        return self._schedule_pass(now)
