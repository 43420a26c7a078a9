"""REFERENCE EASY pass: ``EasyScheduler``, kept verbatim.

This module freezes the head-reservation discipline exactly as it
stood before the EASY pass became event-incremental — the running set
re-sorted into releases on every blocked pass, the ``(head, free)``
shadow memo with its invalidation hooks, ``queue.pop(0)`` / ``queue[1:]``
copies and a fresh ``pseudo_running`` list per pass.
``tests/properties/test_prop_easy_equivalence.py`` requires the shipped
scheduler to produce byte-identical ``(job_id, start_time)`` lists and
the same ``events_processed`` against it.

The class body is copied unchanged.  The base-class queue helpers
(``_enqueue``, ``_dequeue``, ``_ordered_queue``, the last with
``PriorityPolicy.sort``'s old body inlined) are frozen beside it in
:class:`_FrozenQueue`: the shipped ``Scheduler`` keeps a dynamic policy's
order between passes, checks it instead of re-sorting, and dequeues by
identity, and an oracle that inherited those would compare the checked
order with itself.  With the frozen helpers a dynamic policy is fully
re-sorted by ``key`` on every pass and removal uses ``list.remove``, as
before.  Everything else comes from the public API — ``Scheduler`` for
the running table and lifecycle, ``EPS_SNAP`` for the backfill tolerance.

Do not edit this file to follow the shipped code: its value is being the
independent original.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import SchedulingError
from repro.sched.base import Scheduler
from repro.sched.tol import EPS_SNAP as _EPS
from repro.workload.job import Job

__all__ = ["EasyScheduler"]


# -- sched/base.py queue helpers (verbatim from the parent commit) -----------------


class _FrozenQueue(Scheduler):
    def _enqueue(self, job: Job) -> None:
        if self._queue_is_sorted:
            # Static keys ignore ``now``; 0.0 is an arbitrary stand-in.
            key = self.priority.key(job, 0.0)
            keys = self._queue_keys
            if not keys or key >= keys[-1]:
                # Dominant case: keys end in (submit_time, job_id) and
                # arrivals are delivered in submit order, so FCFS-like
                # policies always append — O(1) instead of a bisect plus
                # a mid-list insert's memmove.
                keys.append(key)
                self._queue.append(job)
            else:
                index = bisect_right(keys, key)
                keys.insert(index, key)
                self._queue.insert(index, job)
        else:
            self._queue.append(job)

    def _dequeue(self, job: Job) -> None:
        if self._queue_is_sorted:
            # Keys end in (submit_time, job_id), so each job's key is
            # unique and a bisect lands exactly on it if present.
            keys = self._queue_keys
            index = bisect_left(keys, self.priority.key(job, 0.0))
            if index < len(keys) and self._queue[index] == job:
                del keys[index]
                del self._queue[index]
                return
        else:
            try:
                self._queue.remove(job)
                return
            except ValueError:
                pass
        raise SchedulingError(
            f"{self.name}: job {job.job_id} is not in the idle queue"
        ) from None

    def _ordered_queue(self, now: float) -> list[Job]:
        """The idle queue in priority order at time ``now``."""
        if self._queue_is_sorted:
            return list(self._queue)
        # ``PriorityPolicy.sort``'s parent body, inlined: a full sort by
        # ``key`` every pass, independent of the shipped checked sort.
        return sorted(self._queue, key=lambda job: self.priority.key(job, now))


# -- easy.py (verbatim from the parent commit) ----------------------------------------


class EasyScheduler(_FrozenQueue):
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
