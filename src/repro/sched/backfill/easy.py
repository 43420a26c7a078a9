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

A pass pays only for what the event changed: running releases stay sorted
between events, so the shadow is a walk, and the phases walk the base
class's checked priority order by index instead of copying it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import islice
from typing import Iterable

from repro.errors import SchedulingError
from repro.sched.base import Scheduler
from repro.sched.priority.policies import PriorityPolicy
from repro.sched.tol import EPS_SNAP as _EPS
from repro.workload.job import Job

__all__ = ["EasyScheduler"]


class EasyScheduler(Scheduler):
    """EASY / aggressive backfilling with a pluggable priority policy."""

    name = "EASY"

    def __init__(self, priority: PriorityPolicy | None = None) -> None:
        super().__init__(priority)
        #: ``(start + estimate, procs)`` per running job, in the order the
        #: shadow walk consumes them; kept sorted as jobs start and finish.
        self._releases: list[tuple[float, int]] = []

    def reset(self) -> None:
        self._releases = []

    def _fork_into(self, clone: Scheduler) -> None:
        clone._releases = list(self._releases)

    def notify_started(self, job: Job, now: float) -> None:
        super().notify_started(job, now)
        insort(self._releases, (now + job.estimate, job.procs))

    def notify_finished(self, job: Job, now: float) -> None:
        running = self._running.get(job.job_id)
        super().notify_finished(job, now)  # raises for a job not running
        release = (running[1] + job.estimate, job.procs)
        releases = self._releases
        index = bisect_left(releases, release)
        if index == len(releases) or releases[index] != release:
            raise SchedulingError(f"{self.name}: job {job.job_id} has no release entry")
        del releases[index]

    def _shadow(self, head: Job, now: float, free: int,
                started: list[Job]) -> tuple[float, int]:
        """Shadow time and extra processors for the blocked ``head``.

        Walks the running jobs' releases merged with the jobs ``started``
        earlier in this same pass (released at ``now + estimate``).
        Running jobs are assumed to release processors at ``start +
        estimate``; with estimates always >= actual runtimes this is a safe
        (conservative) bound, so the head can never be delayed past the
        shadow by a backfill decision.
        """
        releases = self._releases
        if started:
            # One sorted run plus a few same-pass starts: timsort merges.
            releases = sorted(releases + [(now + j.estimate, j.procs) for j in started])
        available = free
        for finish, procs in releases:
            available += procs
            if available >= head.procs:
                # A running job always has ``start + estimate > now``
                # (runtimes are capped at estimates and releases are
                # processed before scheduler reactions), so the clamp
                # never bites and the walk order is the clamped order.
                return max(finish, now), available - head.procs
        raise SchedulingError(
            f"{self.name}: job {head.job_id} ({head.procs} procs) can never "
            f"start — machine too small or accounting bug"
        )

    def _backfill(self, now: float, candidates: Iterable[Job], free: int,
                  shadow: float, extra: int) -> list[Job]:
        """Phase 3: start the ``candidates`` that cannot delay the head."""
        started: list[Job] = []
        for job in candidates:
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

    def _schedule_pass(self, now: float) -> list[Job]:
        free = self._machine().free_procs
        started: list[Job] = []

        queue = self._ordered_queue(now)

        # Phase 1: start in priority order while the head fits.
        for job in queue:
            if job.procs > free:
                break
            self._dequeue(job)
            started.append(job)
            free -= job.procs
        else:
            return started  # every queued job fit

        # Phase 2: the head is blocked; give it the one reservation.
        head = len(started)  # phase 1 started exactly the queue's prefix
        shadow, extra = self._shadow(queue[head], now, free, started)

        # Phase 3: backfill the remainder of the queue in priority order.
        candidates = islice(queue, head + 1, None)
        return started + self._backfill(now, candidates, free, shadow, extra)

    def poke(self, now: float) -> list[Job]:
        # A withdrawn head hands its reservation to the next job.
        return self._schedule_pass(now)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        self._enqueue(job)
        return self._schedule_pass(now)

    def on_finish(self, job: Job, now: float) -> list[Job]:
        return self._schedule_pass(now)
