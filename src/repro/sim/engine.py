"""The simulation engine.

:class:`Simulator` replays a workload — a row
:class:`~repro.workload.job.Workload` or a columnar
:class:`~repro.workload.table.JobTable`, absorbed behind an *arrival
feed* (:mod:`repro.sim.feed`, DESIGN.md section 12) — through a
:class:`~repro.sched.base.Scheduler` on a
:class:`~repro.cluster.machine.Machine` and returns a
:class:`SimulationResult` holding every job's outcome plus run-level
accounting.  Table-fed jobs materialize lazily per arrival batch via
the trusted bulk constructor; the two feeds produce byte-identical
schedules.

Event protocol (see :mod:`repro.sim.events` for the tie-breaking rules):

* ``JOB_ARRIVAL`` — the scheduler's :meth:`on_arrival` runs and returns
  jobs to start immediately;
* ``JOB_FINISH`` — processors are released first, then :meth:`on_finish`
  runs (so freed processors are startable in the same instant).

A job started at time *t* finishes at ``t + job.effective_runtime``: jobs
are killed at their wall-clock limit (``estimate``), matching production
scheduler semantics, though the standard estimate models never produce
``estimate < runtime``.

The engine verifies global invariants as it runs (monotone clock, every
arrival eventually completes, starts only of known queued jobs) and raises
:class:`~repro.errors.SimulationError` on any violation rather than
returning corrupt results.

Checkpoint/fork (see DESIGN.md section 9): a run can be paused at a
*batch boundary* with :meth:`Simulator.run_until` (a job-count horizon)
or :meth:`Simulator.run_until_time` (a wall-clock stop), captured with
:meth:`Simulator.snapshot`, and continued on a *prefix* workload with
:meth:`Simulator.resume` + :meth:`Simulator.drain` — the mechanism behind
the executor's simulation chains, which share one simulated prefix across
an entire horizon sweep.  Workload arrivals are therefore *fed lazily*
(merged into each batch from the sorted workload rather than pre-pushed
onto the event queue): the event queue then holds only engine-generated
events (finishes and scheduler-requested timers), whose push sequence is
identical for every workload sharing the prefix, which is what makes a
snapshot's event queue and tie-breaking counters exactly reusable.

The batch-boundary invariant both pause methods enforce: after a pause
at watermark *w*, every batch strictly before *w* has been processed and
none at or after it — so ``delivered`` arrivals are exactly the workload
jobs with ``submit_time < w``, which is what :meth:`Simulator.resume`
re-validates on every branch.  Violations (non-monotone horizons, a
workload that disagrees with the simulated history, arrivals injected
into the simulated past via :meth:`Simulator.extend_workload`) raise
:class:`~repro.errors.SimulationError` immediately instead of drifting.

Streaming metrics (see DESIGN.md section 11): a long-lived simulation —
the serve layer's live session — cannot afford the per-job
:class:`~repro.metrics.collector.CompletedJob` rows a batch run
accumulates.  Passing a *metrics sink* (duck-typed:
``observe(record)``, ``fork()``, ``watched_records``,
``run_metrics(utilization=..., makespan=...)`` — implemented by
:class:`repro.metrics.streaming.StreamingMetrics`) makes the engine hand
each completed record to the sink and drop it, keeping per-job state
O(running + queued) instead of O(total jobs).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.cluster.machine import Machine
from repro.errors import SchedulingError, SimulationError
from repro.metrics.collector import CompletedJob, RunMetrics, summarize
from repro.sched.base import Scheduler
from repro.sched.tol import EPS_SNAP
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.feed import make_feed
from repro.sim.trace import EventTrace
from repro.workload.job import Job, Workload
from repro.workload.table import JobTable

__all__ = ["Simulator", "SimulationResult", "SimulationSnapshot", "simulate"]


@dataclass(frozen=True)
class SimulationResult:
    """Everything a single run produced."""

    workload_name: str
    scheduler_name: str
    metrics: RunMetrics
    events_processed: int
    trace: EventTrace | None = None

    @property
    def completed(self) -> tuple[CompletedJob, ...]:
        return self.metrics.records

    def start_times(self) -> dict[int, float]:
        """job_id -> start time (see :meth:`RunMetrics.start_times`)."""
        return self.metrics.start_times()


@dataclass(frozen=True)
class SimulationSnapshot:
    """The complete mutable state of a paused simulation.

    Taken by :meth:`Simulator.snapshot` at a batch boundary — no event at
    a time ``>= watermark`` has been processed — and turned back into a
    live simulator by :meth:`Simulator.resume`.  Every field is an
    independent copy (cloned queue/machine, forked scheduler), so the
    snapshot stays valid while the originating simulation runs on, and a
    single snapshot can seed any number of resumed branches.
    """

    clock: float
    events: EventQueue
    scheduler: Scheduler
    machine: Machine
    timer_times: set
    completed: tuple
    start_times: dict
    events_processed: int
    #: Workload arrivals already fed into batches (= jobs with
    #: ``submit_time < watermark``); resume validates this against the
    #: branch workload.
    delivered: int
    #: Pause boundary: every batch strictly before it has been processed,
    #: none at or after it.
    watermark: float
    total_procs: int
    #: Jobs completed before the pause.  Equals ``len(completed)`` in
    #: batch mode; in streaming mode ``completed`` is empty and this
    #: counter is the only record of how many jobs already finished.
    completed_count: int = 0
    #: Forked metrics sink for streaming-mode snapshots (None in batch
    #: mode).  Carries the aggregate state of every pre-pause completion,
    #: which is why a streaming snapshot cannot resume without a sink.
    metrics_sink: object | None = None


class Simulator:
    """Drives one scheduler over one workload."""

    #: Sentinel for :meth:`resume`'s ``metrics_sink`` parameter: inherit
    #: (fork) the snapshot's own sink.
    _INHERIT_SINK = object()

    def __init__(
        self,
        workload: Workload | JobTable,
        scheduler: Scheduler,
        *,
        trace: EventTrace | None = None,
        metrics_sink=None,
        _feed=None,
    ) -> None:
        self._feed = _feed if _feed is not None else make_feed(workload)
        self.scheduler = scheduler
        self.machine = Machine(self._feed.max_procs)
        self.trace = trace
        self.clock = 0.0
        self._metrics_sink = metrics_sink
        self._completed_count = 0
        self._events = EventQueue()
        self._completed: list[CompletedJob] = []
        self._start_times: dict[int, float] = {}
        self._pending = 0
        self._events_processed = 0
        # Times with a pending TIMER event, each discarded when it fires.
        self._timer_times: set[float] = set()
        self._ran = False
        self._primed = False
        self._finalized = False
        self._arrival_index = 0  # next workload job to feed into a batch
        self._watermark = 0.0  # largest run_until() stop time so far

    # -- internals ------------------------------------------------------------

    @property
    def workload(self) -> Workload:
        """The workload in row form.

        Table-fed simulations materialize it lazily (trusted, cached by
        the feed) — the hot path never touches it, only external
        inspection does.
        """
        return self._feed.as_workload()

    def _record_trace(self, action: str, job: Job) -> None:
        if self.trace is not None:
            self.trace.record(
                self.clock,
                action,
                job.job_id,
                job.procs,
                self.scheduler.queue_length,
                self.machine.free_procs,
            )

    def _request_wakeup(self, time: float) -> None:
        """Schedule a TIMER event at ``time`` (deduplicated, never in the past)."""
        when = max(time, self.clock)
        if when not in self._timer_times:
            self._timer_times.add(when)
            self._events.push(Event(when, EventKind.TIMER, None))

    # -- the event loop ---------------------------------------------------------

    def _prime(self) -> None:
        """Bind the scheduler; arrivals stay lazy."""
        self._primed = True
        self.scheduler.bind(self.machine, self._request_wakeup)
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
        timestamp, merging queue events (finishes, then timers — popped
        in kind/sequence order) with the workload arrivals due then, fed
        from the sorted feed.  Arrivals sort last by kind, so feeding
        them instead of pushing them keeps the order a queue holding
        every arrival would give.  Within a batch, *all* completions
        release their processors (phase 1) before any scheduling decision
        runs (phase 2) — real schedulers batch their wakeups the same
        way, and a start planned at two simultaneous completions must
        observe both.  Events pushed *during* processing at the same
        timestamp form the next batch.  Table-fed jobs materialize here, batch by
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
        start_times = self._start_times
        sink = self._metrics_sink
        record_append = self._completed.append
        trusted_completed = CompletedJob._trusted
        timer_times = self._timer_times
        trace = self.trace
        record_trace = self._record_trace
        timer_kind = EventKind.TIMER
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
                    # Finishes sort before timers, and wake-ups are
                    # deduplicated per instant: a batch ends in at most
                    # one TIMER (workload arrivals are fed, never pushed).
                    timer = batch[-1].kind is timer_kind
                    n_finish = len(batch) - timer
                    # Phase 1: every completion at this instant releases
                    # its processors and records its outcome.
                    for k in range(n_finish):
                        job = batch[k].job
                        jid = job.job_id
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
                        started = on_finish(batch[k].job, clock)
                        if started:
                            start_jobs(started)
                    if timer:
                        timer_times.discard(clock)
                        started = on_wakeup(clock)
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

    def _finalize(self) -> SimulationResult:
        self._finalized = True
        if self._pending != 0:
            stuck = [j.job_id for j in self.scheduler.queued_jobs]
            raise SchedulingError(
                f"simulation drained its events with {self._pending} jobs "
                f"unfinished (still queued: {stuck[:10]}{'...' if len(stuck) > 10 else ''})"
            )
        if self._completed_count != self._feed.n:
            raise SimulationError(
                f"completed {self._completed_count} of {self._feed.n} jobs"
            )

        # The feed is submit-sorted, so the first submit time is the min.
        makespan = self.clock - (
            self._feed.submit_times[0] if self._feed.n else 0.0
        )
        if self._metrics_sink is not None:
            metrics = self._metrics_sink.run_metrics(
                utilization=self.machine.utilization(), makespan=makespan
            )
        else:
            metrics = summarize(
                self._completed,
                utilization=self.machine.utilization(),
                makespan=makespan,
            )
        return SimulationResult(
            workload_name=self._feed.name,
            scheduler_name=self.scheduler.describe(),
            metrics=metrics,
            events_processed=self._events_processed,
            trace=self.trace,
        )

    # -- public API -----------------------------------------------------------

    @property
    def watermark(self) -> float:
        """The pause boundary: every batch strictly before it is processed."""
        return self._watermark

    @property
    def completed_count(self) -> int:
        """Number of jobs that have finished so far."""
        return self._completed_count

    @property
    def metrics_sink(self):
        """The streaming metrics sink, or None in batch mode."""
        return self._metrics_sink

    @property
    def completed_records(self) -> tuple[CompletedJob, ...]:
        """Completion records held in memory.

        Batch mode: every finished job.  Streaming mode: only the sink's
        watched jobs — everything else was folded into the sink's O(1)
        aggregates and dropped.
        """
        if self._metrics_sink is not None:
            return tuple(self._metrics_sink.watched_records)
        return tuple(self._completed)

    def run(self) -> SimulationResult:
        """Run to completion and return the result.  Single use."""
        if self._ran:
            raise SimulationError("a Simulator instance can only run once")
        self._ran = True
        self._prime()
        self._advance_until(math.inf)
        return self._finalize()

    def run_until(self, job_count: int) -> None:
        """Advance until just before workload job ``job_count`` arrives.

        Processes every batch whose timestamp is strictly before the
        submit time of ``workload[job_count]`` and pauses at that batch
        boundary — the exact point where a simulation of only the first
        ``job_count`` jobs stops being distinguishable from this one, so a
        :meth:`snapshot` taken here can seed either continuation.  May be
        called repeatedly with non-decreasing horizons; finish with
        :meth:`drain`.
        """
        if self._finalized:
            raise SimulationError("run_until() after the simulation finished")
        if not 0 < job_count < self._feed.n:
            raise SimulationError(
                f"run_until() needs 0 < job_count < {self._feed.n}, "
                f"got {job_count} (use run() or drain() for a full run)"
            )
        if not self._primed:
            if self._ran:
                raise SimulationError("run_until() after run() on the same instance")
            self._ran = True
            self._prime()
        stop_time = self._feed.submit_times[job_count]
        if stop_time < self._watermark:
            raise SimulationError(
                f"run_until() horizons must be non-decreasing: job {job_count} "
                f"arrives at {stop_time}, before the previous stop at "
                f"{self._watermark}"
            )
        self._advance_until(stop_time)
        self._watermark = stop_time

    def run_until_time(self, stop_time: float) -> None:
        """Advance to the batch boundary at wall-clock ``stop_time``.

        Processes every batch whose timestamp is strictly before
        ``stop_time`` and pauses, leaving events at exactly ``stop_time``
        unprocessed — the same boundary guarantee as :meth:`run_until`,
        but anchored to simulated time instead of a job-count horizon, so
        it works for live sessions whose future arrivals are unknown:
        empty workloads (a zero-job session priming itself), stops beyond
        the last arrival (a queue draining with nothing left to submit),
        and repeated non-decreasing stops are all legal.  After the pause
        a :meth:`snapshot` is valid: ``delivered`` arrivals are exactly
        the jobs with ``submit_time < stop_time``.

        Raises :class:`~repro.errors.SimulationError` on a non-monotone
        stop (``stop_time`` below a previous watermark — the state for
        times already simulated is gone, and continuing would silently
        drift), a non-finite or negative stop, use after :meth:`run`, or
        use after the simulation finished.
        """
        if self._finalized:
            raise SimulationError("run_until_time() after the simulation finished")
        if not math.isfinite(stop_time) or stop_time < 0:
            raise SimulationError(
                f"run_until_time() needs a finite stop time >= 0, got {stop_time}"
            )
        if not self._primed:
            if self._ran:
                raise SimulationError(
                    "run_until_time() after run() on the same instance"
                )
            self._ran = True
            self._prime()
        if stop_time < self._watermark:
            raise SimulationError(
                f"run_until_time() stops must be non-decreasing: got "
                f"{stop_time}, before the previous stop at {self._watermark}"
            )
        self._advance_until(stop_time)
        self._watermark = stop_time

    def extend_workload(self, workload: Workload | JobTable) -> None:
        """Swap in a workload that extends this one with future arrivals.

        The streaming-submission primitive behind the serve layer's
        :class:`~repro.serve.Session`: arrivals are fed lazily, so a
        paused simulation can accept new jobs by replacing the workload
        with a superset — provided the simulated history stays intact.
        Accepts either a row :class:`Workload` or a columnar
        :class:`JobTable` (two table-fed feeds validate their shared
        prefix by column comparison, no ``Job`` objects involved).
        Enforced, with a clear
        :class:`~repro.errors.SimulationError` instead of silent drift:

        * same machine size;
        * the already-delivered arrival prefix is identical job for job;
        * every undelivered job (old or new) is submitted at or after
          the watermark — submitting into the simulated past would
          desynchronize ``delivered`` from the workload history that
          :meth:`resume` validates;
        * no previously-pending job vanishes.
        """
        if self._finalized:
            raise SimulationError("extend_workload() after the simulation finished")
        old_feed = self._feed
        new_feed = make_feed(workload)
        if new_feed.max_procs != old_feed.max_procs:
            raise SimulationError(
                f"extend_workload() cannot change the machine size "
                f"({old_feed.max_procs} -> {new_feed.max_procs} procs)"
            )
        delivered = self._arrival_index
        if new_feed.n < delivered:
            raise SimulationError(
                f"extend_workload() got {new_feed.n} jobs but "
                f"{delivered} arrivals were already simulated"
            )
        mismatch = old_feed.first_prefix_mismatch(new_feed, delivered)
        if mismatch is not None:
            changed = old_feed.materialize(mismatch, mismatch + 1)[0]
            raise SimulationError(
                f"extend_workload() disagrees with the simulated history: "
                f"delivered job {changed.job_id} changed"
            )
        # The feed is submit-sorted, so the first undelivered job is the
        # earliest; checking it checks them all.
        if new_feed.n > delivered and new_feed.submit_times[delivered] < self._watermark:
            offender = new_feed.materialize(delivered, delivered + 1)[0]
            raise SimulationError(
                f"cannot submit job {offender.job_id} at t={offender.submit_time}, "
                f"in the simulated past (time is already at "
                f"{self._watermark})"
            )
        lost = old_feed.ids_from(delivered) - new_feed.ids_from(delivered)
        if lost:
            raise SimulationError(
                f"extend_workload() dropped pending jobs {sorted(lost)[:10]}"
            )
        if self._primed:
            self._pending += new_feed.n - old_feed.n
        self._feed = new_feed

    def drain(self) -> SimulationResult:
        """Run the remaining events to completion and return the result.

        The terminal step after :meth:`run_until` / :meth:`resume`;
        subject to the same single-use rule as :meth:`run`.
        """
        if not self._primed:
            raise SimulationError("drain() before run_until() or resume()")
        if self._finalized:
            raise SimulationError("drain() after the simulation finished")
        self._advance_until(math.inf)
        return self._finalize()

    def snapshot(self) -> SimulationSnapshot:
        """Capture the paused simulation's state as an independent copy.

        Must follow :meth:`run_until` (the batch-boundary guarantee is
        what makes the state reusable).  The running simulation is not
        disturbed and may be advanced further afterwards.
        """
        if not self._primed:
            raise SimulationError("snapshot() before run_until()")
        if self._finalized:
            raise SimulationError("snapshot() after the simulation finished")
        return SimulationSnapshot(
            clock=self.clock,
            events=self._events.clone(),
            scheduler=self.scheduler.fork(),
            machine=self.machine.clone(),
            timer_times=set(self._timer_times),
            completed=tuple(self._completed),
            start_times=dict(self._start_times),
            events_processed=self._events_processed,
            delivered=self._arrival_index,
            watermark=self._watermark,
            total_procs=self.machine.total_procs,
            completed_count=self._completed_count,
            metrics_sink=(
                self._metrics_sink.fork()
                if self._metrics_sink is not None
                else None
            ),
        )

    @classmethod
    def resume(
        cls,
        snapshot: SimulationSnapshot,
        workload: Workload | JobTable,
        *,
        trace: EventTrace | None = None,
        metrics_sink=_INHERIT_SINK,
    ) -> "Simulator":
        """Rebuild a live simulator from ``snapshot`` on ``workload``.

        ``workload`` must agree with the snapshot's history: same machine
        size, and exactly the snapshot's ``delivered`` jobs submitted
        before its watermark (the simulated prefix).  The returned
        simulator continues from the pause point; call :meth:`drain` (or
        :meth:`run_until` for further checkpoints) on it.  The snapshot is
        left intact and can seed more branches.

        ``metrics_sink`` defaults to inheriting the snapshot's mode: a
        streaming snapshot forks its sink for the branch (each branch
        accumulates independently), a batch snapshot stays batch.  Pass a
        sink explicitly to replace the fork; a streaming snapshot cannot
        resume without one — its pre-pause records are gone, so only a
        sink carrying their aggregates can finish the run.
        """
        feed = make_feed(workload)
        if feed.max_procs != snapshot.total_procs:
            raise SimulationError(
                f"cannot resume on a {feed.max_procs}-proc workload: the "
                f"snapshot was taken on {snapshot.total_procs} processors"
            )
        delivered = bisect_left(feed.submit_times, snapshot.watermark)
        if delivered != snapshot.delivered:
            raise SimulationError(
                f"workload disagrees with the snapshot's history: "
                f"{delivered} jobs submitted before t={snapshot.watermark}, "
                f"but the snapshot simulated {snapshot.delivered} arrivals"
            )
        if metrics_sink is cls._INHERIT_SINK:
            metrics_sink = (
                snapshot.metrics_sink.fork()
                if snapshot.metrics_sink is not None
                else None
            )
        elif metrics_sink is None and snapshot.metrics_sink is not None:
            raise SimulationError(
                "a streaming snapshot cannot resume without a metrics sink: "
                "its pre-pause per-job records were already folded away"
            )
        sim = cls(workload, snapshot.scheduler.fork(), trace=trace,
                  metrics_sink=metrics_sink, _feed=feed)
        sim.machine = snapshot.machine.clone()
        sim.clock = snapshot.clock
        sim._events = snapshot.events.clone()
        sim._completed = list(snapshot.completed)
        sim._completed_count = snapshot.completed_count
        sim._start_times = dict(snapshot.start_times)
        sim._events_processed = snapshot.events_processed
        sim._timer_times = set(snapshot.timer_times)
        sim._arrival_index = delivered
        sim._pending = feed.n - snapshot.completed_count
        sim._watermark = snapshot.watermark
        sim._ran = True
        sim._primed = True
        sim.scheduler.rebind(sim.machine, sim._request_wakeup)
        return sim


def simulate(
    workload: Workload | JobTable,
    scheduler: Scheduler,
    *,
    trace: EventTrace | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper: build a Simulator and run it.

    Accepts either a row :class:`Workload` or a columnar
    :class:`JobTable`; the table form is faster (jobs materialize lazily
    through the trusted constructor, batch by batch).
    """
    return Simulator(workload, scheduler, trace=trace).run()
