"""The preemptive simulation engine.

Differences from :class:`repro.sim.engine.Simulator`:

* a running job can be *suspended*: its processors are released, its
  remaining work is recorded, and it goes back to the waiting pool;
* each running job has one *live* finish event, the one its latest start
  or resume pushed; a suspension drops it, so the finish still queued
  from that run is stale (the event queue does not support removal — a
  finish that is not its job's live event is simply ignored);
* the scheduler is a policy object returning a
  :class:`~repro.preempt.scheduler.SuspendDecision` (starts + suspends)
  from a global view of the waiting and running sets.

Each start or resume builds the job's one
:class:`~repro.preempt.scheduler.RunningView` (the job, the instant and the
work of its earlier runs), so a decision round rebuilds and re-sums nothing.
A suspension adds ``clock - started`` to that total in the order a sum over
the intervals would, so every pseudo-release is the same float.  The
waiting pool and the running set are dicts keyed by job id, in pool order.

Events live on the shared :class:`~repro.sim.events.EventQueue`, with
``TIMER`` events for the periodic decision ticks.  Per batch of
same-timestamp events the engine releases all completions, admits all
arrivals, then runs the decision loop until the policy has nothing more
to do (bounded by an iteration cap — a correct policy converges because
preemption criteria are monotone).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.machine import Machine
from repro.errors import SchedulingError, SimulationError
from repro.preempt.records import PreemptedJob, summarize_preemptive
from repro.preempt.scheduler import RunningView, SelectiveSuspensionScheduler
from repro.metrics.collector import RunMetrics
from repro.sim.events import Event, EventKind, EventQueue
from repro.workload.job import Job, Workload

__all__ = ["PreemptiveSimulator", "PreemptiveResult"]


@dataclass(frozen=True)
class PreemptiveResult:
    """Outcome of one preemptive run."""

    workload_name: str
    scheduler_name: str
    metrics: RunMetrics
    records: tuple[PreemptedJob, ...] = field(repr=False)
    total_suspensions: int = 0

    def start_times(self) -> dict[int, float]:
        return {r.job.job_id: r.first_start for r in self.records}


class PreemptiveSimulator:
    """Drives one workload through a suspension-based policy."""

    #: Safety bound on decision-loop iterations per event batch.
    MAX_DECISION_ROUNDS = 10_000

    def __init__(
        self,
        workload: Workload,
        scheduler: SelectiveSuspensionScheduler,
        *,
        decision_interval: float = 300.0,
        suspension_overhead: float = 0.0,
    ) -> None:
        """``decision_interval``: while jobs wait, the policy is re-run at
        least this often even with no completions or arrivals — expansion
        factors grow with wall-clock time, so suspension eligibility can
        appear between job events (unlike reservation-based schedulers,
        whose decision points always coincide with events).

        ``suspension_overhead``: wall-clock seconds each suspension adds
        to the victim's remaining execution (state save + restore).  The
        paper's suspension-in-place variant is 0; checkpoint-to-disk
        schemes cost minutes."""
        if decision_interval <= 0:
            raise SimulationError(
                f"decision_interval must be > 0, got {decision_interval}"
            )
        if suspension_overhead < 0:
            raise SimulationError(
                f"suspension_overhead must be >= 0, got {suspension_overhead}"
            )
        self.workload = workload
        self.scheduler = scheduler
        self.decision_interval = decision_interval
        self.suspension_overhead = suspension_overhead
        self._tick_pending = False
        self.machine = Machine(workload.max_procs)
        self.clock = 0.0
        self._events = EventQueue()
        self._waiting: dict[int, Job] = {}
        self._running: dict[int, RunningView] = {}
        self._remaining: dict[int, float] = {}
        self._done: dict[int, float] = {}  # work of the earlier runs, per job
        self._live_finish: dict[int, Event] = {}
        self._intervals: dict[int, list[tuple[float, float]]] = {}
        self._records: list[PreemptedJob] = []
        self._suspensions = 0
        self._ran = False

    # -- state transitions ------------------------------------------------------

    def _start(self, job: Job) -> None:
        """Start or resume a waiting job."""
        if self._waiting.pop(job.job_id, None) is None:
            raise SchedulingError(
                f"policy started job {job.job_id} which is not waiting"
            )
        self.machine.allocate(job, self.clock)
        self._running[job.job_id] = RunningView(
            job, self.clock, self._done.get(job.job_id, 0.0)
        )
        remaining = self._remaining.setdefault(job.job_id, job.effective_runtime)
        self._live_finish[job.job_id] = self._events.push_finish(
            self.clock + remaining, job
        )

    def _suspend(self, job: Job) -> None:
        """Suspend a running job back into the waiting pool."""
        view = self._running.pop(job.job_id, None)
        if view is None:
            raise SchedulingError(
                f"policy suspended job {job.job_id} which is not running"
            )
        self.machine.release(job, self.clock)
        started = view.started
        if self.clock <= started:
            raise SchedulingError(
                f"job {job.job_id} suspended the instant it started — "
                "the policy is thrashing"
            )
        self._intervals.setdefault(job.job_id, []).append((started, self.clock))
        self._done[job.job_id] = view.executed_before + (self.clock - started)
        # The suspension's save/restore cost is charged to the victim's
        # remaining execution time.
        self._remaining[job.job_id] -= self.clock - started
        self._remaining[job.job_id] += self.suspension_overhead
        del self._live_finish[job.job_id]  # the pending finish is stale
        self._waiting[job.job_id] = job
        self._suspensions += 1

    def _finish(self, job: Job) -> None:
        del self._live_finish[job.job_id]
        self.machine.release(job, self.clock)
        started = self._running.pop(job.job_id).started
        self._intervals.setdefault(job.job_id, []).append((started, self.clock))
        self._remaining[job.job_id] = 0.0
        self._records.append(
            PreemptedJob(
                job,
                tuple(self._intervals[job.job_id]),
                overhead_per_suspension=self.suspension_overhead,
            )
        )

    # -- the decision loop -----------------------------------------------------------

    def _run_decisions(self) -> None:
        for _ in range(self.MAX_DECISION_ROUNDS):
            decision = self.scheduler.decide(
                self.clock,
                list(self._waiting.values()),
                self._running.values(),
                self.machine.free_procs,
            )
            if not decision.starts and not decision.suspends:
                return
            for victim in decision.suspends:
                self._suspend(victim)
            for job in decision.starts:
                self._start(job)
        raise SchedulingError(
            f"{self.scheduler.name}: decision loop did not converge within "
            f"{self.MAX_DECISION_ROUNDS} rounds at t={self.clock}"
        )

    # -- main loop -----------------------------------------------------------------

    def run(self) -> PreemptiveResult:
        if self._ran:
            raise SimulationError("a PreemptiveSimulator instance can only run once")
        self._ran = True

        events = self._events
        for job in self.workload:
            events.push(Event(job.submit_time, EventKind.JOB_ARRIVAL, job))

        while events:
            batch_time = events.next_time
            self.clock = max(self.clock, batch_time)
            # A batch is in kind order: every finish before any arrival.
            for event in events.pop_batch(batch_time):
                job = event.job
                if event.kind is EventKind.TIMER:
                    self._tick_pending = False
                elif event.kind is EventKind.JOB_ARRIVAL:
                    self._waiting[job.job_id] = job
                # A finish that is not its job's live one is stale: the
                # job was suspended after pushing it.
                elif self._live_finish.get(job.job_id) is event:
                    self._finish(job)
            self._run_decisions()
            if self._waiting and not self._tick_pending:
                self._tick_pending = True
                events.push(
                    Event(self.clock + self.decision_interval, EventKind.TIMER)
                )

        if len(self._records) != len(self.workload):
            raise SchedulingError(
                f"preemptive run completed {len(self._records)} of "
                f"{len(self.workload)} jobs (waiting: {list(self._waiting)[:10]})"
            )
        metrics = summarize_preemptive(
            self._records, utilization=self.machine.utilization()
        )
        return PreemptiveResult(
            workload_name=self.workload.name,
            scheduler_name=self.scheduler.describe(),
            metrics=metrics,
            records=tuple(self._records),
            total_suspensions=self._suspensions,
        )
