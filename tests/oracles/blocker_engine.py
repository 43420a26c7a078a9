"""REFERENCE engine-side advance reservations, kept verbatim.

This module freezes how :class:`repro.sim.engine.Simulator` honoured
advance reservations while the engine held them: each window was a
*blocker* job with an id at or above ``10**12``, pushed as a queued
arrival at the window's start (so it allocated after that instant's
completions and timer passes, before its workload arrivals) and released
by its own finish event in phase 1 of the window's end, after which the
engine called the scheduler's ``poke``.  The frozen planners of
``tests/oracles/planners.py`` never held their windows themselves, so
``tests/properties/test_prop_planner_equivalence.py`` runs them on this
loop; the shipped disciplines, whose planning core holds its own windows,
run on the shipped engine, and both must produce the same bytes.

:class:`BlockerSimulator` subclasses the shipped ``Simulator`` and
replaces only what the blockers touched: ``_prime`` and
``_advance_until`` (both copied unchanged), plus the blocker installer,
whose id check reads the workload's jobs because the feed's id probe it
called is gone.  Only :meth:`~repro.sim.engine.Simulator.run` is meant
to be used.

Do not edit this file to follow the shipped code: its value is being the
independent original.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.metrics.collector import CompletedJob
from repro.sched.tol import EPS_SNAP
from repro.sim.events import Event, EventKind
from repro.sim.engine import Simulator
from repro.workload.job import Job

__all__ = ["BlockerSimulator", "simulate_with_blockers"]


# -- sim/engine.py (verbatim from the parent commit) ------------------------------


class BlockerSimulator(Simulator):
    """The shipped engine with the pre-planning-core blocker handling."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._blocker_ids: set[int] = set()

    #: Blocker job ids for advance reservations start here; workload ids
    #: must stay below.
    _BLOCKER_ID_BASE = 10**12

    def _install_advance_reservations(self) -> None:
        """Create machine-side capacity blocks for the scheduler's ARs.

        The scheduler is the single source of truth (its planning profile
        already avoids the windows); schedulers without planning support
        cannot honour a hard future rectangle, so declaring ARs on one is
        rejected here rather than failing as an allocation error mid-run.
        """
        reservations = tuple(getattr(self.scheduler, "advance_reservations", ()))
        if not reservations:
            return
        if not getattr(self.scheduler, "supports_advance_reservations", False):
            raise SimulationError(
                f"{self.scheduler.name} cannot honour advance reservations — "
                "only profile-planning disciplines (conservative, selective, "
                "depth) can pack around a hard future rectangle"
            )
        if any(job.job_id >= self._BLOCKER_ID_BASE for job in self.workload.jobs):
            raise SimulationError(
                f"workload job ids must stay below {self._BLOCKER_ID_BASE} "
                "when advance reservations are used"
            )
        from repro.sched.reservations import validate_reservation_set

        validate_reservation_set(reservations, self.machine.total_procs)
        for index, ar in enumerate(reservations):
            blocker = Job(
                job_id=self._BLOCKER_ID_BASE + index,
                submit_time=ar.start,
                runtime=ar.duration,
                estimate=ar.duration,
                procs=ar.procs,
            )
            self._blocker_ids.add(blocker.job_id)
            self._events.push(Event(ar.start, EventKind.JOB_ARRIVAL, blocker))

    def _prime(self) -> None:
        """Bind the scheduler and install reservations; arrivals stay lazy."""
        self._primed = True
        self.scheduler.bind(self.machine, self._request_wakeup)
        self._install_advance_reservations()
        self._pending = self._feed.n

    def _advance_until(self, stop_time: float) -> None:
        """Process batches strictly before ``stop_time`` (inf = drain all).

        This is THE hot loop of a simulation — profiling a 90-cell sweep
        puts ~70% of wall-clock here and in the scheduler passes it calls
        — so it trades a little readability for speed: every attribute
        and method it touches per event is hoisted into a local once per
        call, and the mutable counters are plain locals written back in
        the ``finally`` (the same values the attribute-per-event version
        maintained, including mid-batch on an engine error).

        Each iteration processes one *batch*: every event at the next
        timestamp, merging queue events (finishes, timers, blocker
        arrivals — popped in kind/sequence order) with the workload
        arrivals due then, fed from the sorted feed.  Because workload
        arrivals are never *pushed*, the merge reproduces the ordering
        the pre-checkpoint engine got from pushing all arrivals up front:
        engine-generated events carry lower sequence numbers than any
        arrival at the same instant would, and arrivals sort last by kind
        anyway.  Within a batch, *all* completions release their
        processors (phase 1) before any scheduling decision runs (phase
        2) — real schedulers batch their wakeups the same way, and a
        reservation anchored at two simultaneous completions must observe
        both.  Events pushed *during* processing at the same timestamp
        form the next batch.  Table-fed jobs materialize here, batch by
        batch, through the trusted constructor — a paused run never
        builds the jobs it has not reached.
        """
        feed = self._feed
        submit_times = feed.submit_times
        materialize = feed.materialize
        n_jobs = feed.n
        events = self._events
        heap = events._heap
        push_finish = events.push_finish
        pop_batch = events.pop_batch
        machine = self.machine
        scheduler = self.scheduler
        on_arrival = scheduler.on_arrival
        on_finish = scheduler.on_finish
        on_wakeup = scheduler.on_wakeup
        notify_started = scheduler.notify_started
        notify_finished = scheduler.notify_finished
        poke = scheduler.poke
        blockers = self._blocker_ids
        start_times = self._start_times
        sink = self._metrics_sink
        record_append = self._completed.append
        trusted_completed = CompletedJob._trusted
        timer_times = self._timer_times
        trace = self.trace
        record_trace = self._record_trace
        timer_kind = EventKind.TIMER
        finish_kind = EventKind.JOB_FINISH
        inf = math.inf
        eps_snap = EPS_SNAP
        index = self._arrival_index
        clock = self.clock
        events_processed = self._events_processed
        completed_count = self._completed_count
        pending = self._pending

        def start_jobs(started):
            # Allocate + bookkeep every job the scheduler returned; the
            # closure reads the enclosing ``clock`` so it always sees the
            # current batch time.
            for job in started:
                jid = job.job_id
                if jid in start_times:
                    raise SimulationError(
                        f"scheduler tried to start job {jid} twice"
                    )
                machine.allocate(job, clock)
                start_times[jid] = clock
                notify_started(job, clock)
                runtime = job.runtime
                estimate = job.estimate
                push_finish(
                    clock + (runtime if runtime < estimate else estimate), job
                )
                if trace is not None:
                    record_trace("start", job)

        try:
            while True:
                queue_time = heap[0][0][0] if heap else inf
                if index < n_jobs:
                    arrival_time = submit_times[index]
                    batch_time = (
                        arrival_time if arrival_time < queue_time else queue_time
                    )
                else:
                    batch_time = queue_time
                if batch_time >= stop_time:
                    return
                if batch_time < clock - eps_snap:
                    raise SimulationError(
                        f"time went backwards: {clock} -> {batch_time}"
                    )
                if batch_time > clock:
                    clock = batch_time
                    self.clock = batch_time
                # Arrival-only instants (the common case under light
                # contention) skip the queue entirely.
                batch = pop_batch(batch_time) if queue_time == batch_time else ()
                first = index
                while index < n_jobs and submit_times[index] == batch_time:
                    index += 1
                events_processed += len(batch) + (index - first)

                if batch:
                    n_batch = len(batch)
                    n_finish = 0
                    while (
                        n_finish < n_batch
                        and batch[n_finish].kind is finish_kind
                    ):
                        n_finish += 1
                    # Phase 1: every completion at this instant releases
                    # its processors and records its outcome.
                    for k in range(n_finish):
                        job = batch[k].job
                        jid = job.job_id
                        if blockers and jid in blockers:
                            machine.release(job, clock)
                            continue
                        start = start_times.get(jid)
                        if start is None:
                            raise SimulationError(
                                f"finish event for never-started job {jid}"
                            )
                        machine.release(job, clock)
                        notify_finished(job, clock)
                        record = trusted_completed(job, start, clock)
                        if sink is not None:
                            # Streaming mode: the sink folds the record
                            # into its O(1) accumulators and the engine
                            # drops every per-job trace of the finished
                            # job, so long-lived sessions stay bounded.
                            sink.observe(record)
                            del start_times[jid]
                        else:
                            record_append(record)
                        completed_count += 1
                        pending -= 1
                        if trace is not None:
                            record_trace("finish", job)
                    # Phase 2: scheduling reactions to the completions.
                    for k in range(n_finish):
                        job = batch[k].job
                        if blockers and job.job_id in blockers:
                            # The scheduler never saw the blocker, but its
                            # plan may anchor starts at the window's end —
                            # poke it.
                            started = poke(clock)
                        else:
                            started = on_finish(job, clock)
                        if started:
                            start_jobs(started)
                    for k in range(n_finish, n_batch):
                        event = batch[k]
                        if event.kind is timer_kind:
                            timer_times.discard(clock)
                            started = on_wakeup(clock)
                            if started:
                                start_jobs(started)
                        else:
                            # Queue arrivals are only AR blockers (workload
                            # arrivals are fed, never pushed); the id check
                            # guards against future misuse.
                            job = event.job
                            if job.job_id in blockers:
                                machine.allocate(job, clock)
                                push_finish(clock + job.runtime, job)
                            else:
                                started = on_arrival(job, clock)
                                if trace is not None:
                                    record_trace("arrive", job)
                                if started:
                                    start_jobs(started)
                if index > first:
                    for job in materialize(first, index):
                        started = on_arrival(job, clock)
                        # Recorded after the scheduler reacted so the trace
                        # reflects the post-event state (queue depth
                        # including the job if it queued).
                        if trace is not None:
                            record_trace("arrive", job)
                        if started:
                            start_jobs(started)
        finally:
            self._arrival_index = index
            self._events_processed = events_processed
            self._completed_count = completed_count
            self._pending = pending


def simulate_with_blockers(workload, scheduler):
    """Run ``workload`` through ``scheduler`` on the frozen blocker loop."""
    return BlockerSimulator(workload, scheduler).run()
