"""Plain space-sharing without backfilling (paper Section 2's baseline).

Jobs start strictly in priority order: if the highest-priority waiting job
does not fit, *nothing* behind it may start, even if it would fit.  This is
the scheme whose "low system utilization" motivated backfilling in the
first place; it is included as the reference baseline for the utilization
and slowdown comparisons.
"""

from __future__ import annotations

from repro.sched.base import Scheduler
from repro.workload.job import Job

__all__ = ["FCFSScheduler"]


class FCFSScheduler(Scheduler):
    """Strict in-order space sharing (no backfilling).

    Despite the historical name, any priority policy can be plugged in; the
    defining property is that the queue head blocks everything behind it.
    """

    name = "NOBF"

    def _fork_into(self, clone: Scheduler) -> None:
        pass  # no state beyond the base queue/running bookkeeping

    def _schedule_pass(self, now: float) -> list[Job]:
        queue = self._queue
        if not queue:
            return []
        free = self._machine().free_procs
        if self._queue_is_sorted:
            # The queue IS the priority order: count the fitting prefix
            # and take it in one slice instead of copy + per-job removal.
            count = 0
            for job in queue:
                procs = job.procs
                if procs > free:
                    break  # head of queue blocks; no skipping ever
                free -= procs
                count += 1
            return self._pop_queue_prefix(count) if count else []
        started: list[Job] = []
        for job in self._ordered_queue(now):
            if job.procs > free:
                break  # head of queue blocks; no skipping ever
            self._dequeue(job)
            started.append(job)
            free -= job.procs
        return started

    def poke(self, now: float) -> list[Job]:
        # Withdrawing the blocking head can unblock the whole queue.
        return self._schedule_pass(now)

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        self._enqueue(job)
        return self._schedule_pass(now)

    def on_finish(self, job: Job, now: float) -> list[Job]:
        return self._schedule_pass(now)
