"""REFERENCE preemptive engine and selective-suspension policy, kept verbatim.

This module freezes ``PreemptiveSimulator`` (``preempt/engine.py``) and
``SelectiveSuspensionScheduler`` with its ``RunningView`` and
``SuspendDecision`` (``preempt/scheduler.py``) as they stood before the
engine kept one view per (re)start: a fresh frozen-dataclass
``RunningView`` per running job per decision round, each re-summing the
job's interval history through ``_executed``; the waiting pool a list
left by ``list.remove``; phase 1 dequeuing by ``queue.pop(0)``; and
phase 3 sorting every suspendable running job by expansion factor before
testing eligibility.
``tests/properties/test_prop_preempt_equivalence.py`` requires the
shipped engine and policy to reproduce these per-job intervals,
suspension counts and metrics digests exactly.

The class bodies are copied unchanged, and so is ``summarize_preemptive``
(``preempt/records.py``) as it stood before it aggregated through the
collector's group aggregation: one ``MetricSummary`` per group, built
from the records' own ``bounded_slowdown``, ``turnaround`` and ``wait``
properties.  ``PreemptiveResult``, ``PreemptedJob`` and the priority
policies come from the public API: they are the record path both sides
share, not the bookkeeping under test.

Do not edit this file to follow the shipped code: its value is being the
independent original.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from repro.cluster.machine import Machine
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.preempt.engine import PreemptiveResult
from repro.metrics.categories import Category, EstimateQuality, estimate_quality
from repro.metrics.collector import MetricSummary, RunMetrics
from repro.preempt.records import PreemptedJob
from repro.sched.priority.policies import FCFSPriority, PriorityPolicy, xfactor
from repro.sched.tol import EPS_SNAP as _EPS
from repro.workload.job import Job, Workload

__all__ = [
    "RunningView",
    "SuspendDecision",
    "SelectiveSuspensionScheduler",
    "PreemptiveSimulator",
    "summarize_preemptive",
]


# -- preempt/records.py (verbatim from the parent commit) ---------------------------


def summarize_preemptive(
    records: list[PreemptedJob] | tuple[PreemptedJob, ...],
    *,
    utilization: float = math.nan,
) -> RunMetrics:
    """Aggregate preemptive records into the standard RunMetrics shape.

    The per-category and estimate-quality breakdowns reuse the
    non-preemptive classifiers; the ``records`` tuple of the returned
    object is empty (the preemptive records do not satisfy the
    non-preemptive CompletedJob invariants) — callers needing the raw
    records keep the list they passed in.
    """
    records = list(records)

    def summary(group: list[PreemptedJob]) -> MetricSummary:
        if not group:
            return MetricSummary.empty()
        slowdowns = [r.bounded_slowdown for r in group]
        turnarounds = [r.turnaround for r in group]
        waits = [r.wait for r in group]
        return MetricSummary(
            count=len(group),
            mean_bounded_slowdown=sum(slowdowns) / len(group),
            mean_turnaround=sum(turnarounds) / len(group),
            mean_wait=sum(waits) / len(group),
            max_turnaround=max(turnarounds),
            max_bounded_slowdown=max(slowdowns),
        )

    by_category = {
        category: summary([r for r in records if r.category is category])
        for category in Category
    }
    by_quality = {
        quality: summary(
            [r for r in records if estimate_quality(r.job) is quality]
        )
        for quality in EstimateQuality
    }
    makespan = 0.0
    if records:
        makespan = max(r.finish_time for r in records) - min(
            r.job.submit_time for r in records
        )
    return RunMetrics(
        overall=summary(records),
        by_category=by_category,
        by_estimate_quality=by_quality,
        utilization=utilization,
        makespan=makespan,
        records=(),
    )


# -- preempt/scheduler.py (verbatim from the parent commit) -------------------------


@dataclass(frozen=True)
class RunningView:
    """What the policy may know about one running job."""

    job: Job
    estimated_finish: float  # now + max(estimate - executed, eps)
    suspendable: bool  # False for jobs started at this very instant


@dataclass
class SuspendDecision:
    """What the policy wants done at this instant."""

    starts: list[Job] = field(default_factory=list)  # waiting or suspended jobs
    suspends: list[Job] = field(default_factory=list)  # currently running jobs


class SelectiveSuspensionScheduler:
    """EASY backfilling + selective suspension (see module docstring)."""

    name = "SUSP"

    def __init__(
        self,
        priority: PriorityPolicy | None = None,
        *,
        suspension_factor: float = 2.0,
        min_wait: float = 300.0,
    ) -> None:
        if suspension_factor < 1.0:
            raise ConfigurationError(
                f"suspension_factor must be >= 1, got {suspension_factor}"
            )
        if min_wait < 0:
            raise ConfigurationError(f"min_wait must be >= 0, got {min_wait}")
        self.priority = priority or FCFSPriority()
        self.suspension_factor = suspension_factor
        self.min_wait = min_wait

    def describe(self) -> str:
        return f"{self.name}({self.priority.name}, sf={self.suspension_factor})"

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _shadow(
        head: Job, now: float, free: int, releases: list[tuple[float, int]]
    ) -> tuple[float, int]:
        available = free
        for finish, procs in sorted(releases):
            available += procs
            if available >= head.procs:
                return finish, available - head.procs
        raise SchedulingError(
            f"job {head.job_id} ({head.procs} procs) can never start"
        )

    # -- the decision ----------------------------------------------------------------

    def decide(
        self,
        now: float,
        waiting: list[Job],
        running: list[RunningView],
        free_procs: int,
    ) -> SuspendDecision:
        decision = SuspendDecision()
        queue = self.priority.sort(waiting, now)
        free = free_procs
        pseudo_releases = [
            (max(view.estimated_finish, now), view.job.procs) for view in running
        ]

        # Phase 1: start in priority order while the head fits.
        while queue and queue[0].procs <= free:
            job = queue.pop(0)
            decision.starts.append(job)
            free -= job.procs
            pseudo_releases.append((now + job.estimate, job.procs))
        if not queue:
            return decision

        # Phase 2: EASY backfilling behind the blocked head.
        head = queue[0]
        shadow, extra = self._shadow(head, now, free, pseudo_releases)
        for job in queue[1:]:
            if job.procs > free:
                continue
            by_shadow = now + job.estimate <= shadow + _EPS
            if by_shadow or job.procs <= extra:
                decision.starts.append(job)
                free -= job.procs
                if not by_shadow:
                    extra -= job.procs

        # Phase 3: selective suspension for the (still blocked) head.
        if now - head.submit_time < self.min_wait:
            return decision
        head_xf = xfactor(head, now)
        victims_pool = sorted(
            (view.job for view in running if view.suspendable),
            key=lambda r: xfactor(r, now),
        )
        chosen: list[Job] = []
        freed = free
        for victim in victims_pool:
            if freed >= head.procs:
                break
            if head_xf >= self.suspension_factor * xfactor(victim, now):
                chosen.append(victim)
                freed += victim.procs
        if freed >= head.procs:
            decision.suspends.extend(chosen)
            decision.starts.append(head)
        return decision


# -- preempt/engine.py (verbatim from the parent commit) ----------------------------


_FINISH = 0
_ARRIVAL = 1
_TICK = 2


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
        self._heap: list[tuple[tuple[float, int, int], Job | None, int]] = []
        self._counter = itertools.count()
        self._waiting: list[Job] = []
        self._running: dict[int, Job] = {}
        self._remaining: dict[int, float] = {}
        self._last_start: dict[int, float] = {}
        self._epoch: dict[int, int] = {}
        self._intervals: dict[int, list[tuple[float, float]]] = {}
        self._records: list[PreemptedJob] = []
        self._suspensions = 0
        self._ran = False

    def _push(self, time: float, kind: int, job: Job | None, epoch: int) -> None:
        heapq.heappush(self._heap, ((time, kind, next(self._counter)), job, epoch))

    # -- state transitions ------------------------------------------------------

    def _start(self, job: Job) -> None:
        """Start or resume a waiting job."""
        try:
            self._waiting.remove(job)
        except ValueError:
            raise SchedulingError(
                f"policy started job {job.job_id} which is not waiting"
            ) from None
        self.machine.allocate(job, self.clock)
        self._running[job.job_id] = job
        self._last_start[job.job_id] = self.clock
        epoch = self._epoch.get(job.job_id, 0) + 1
        self._epoch[job.job_id] = epoch
        remaining = self._remaining.setdefault(job.job_id, job.effective_runtime)
        self._push(self.clock + remaining, _FINISH, job, epoch)

    def _suspend(self, job: Job) -> None:
        """Suspend a running job back into the waiting pool."""
        if self._running.pop(job.job_id, None) is None:
            raise SchedulingError(
                f"policy suspended job {job.job_id} which is not running"
            )
        self.machine.release(job, self.clock)
        started = self._last_start[job.job_id]
        if self.clock <= started:
            raise SchedulingError(
                f"job {job.job_id} suspended the instant it started — "
                "the policy is thrashing"
            )
        self._intervals.setdefault(job.job_id, []).append((started, self.clock))
        # The suspension's save/restore cost is charged to the victim's
        # remaining execution time.
        self._remaining[job.job_id] -= self.clock - started
        self._remaining[job.job_id] += self.suspension_overhead
        self._epoch[job.job_id] += 1  # invalidate the pending finish event
        self._waiting.append(job)
        self._suspensions += 1

    def _executed(self, job: Job) -> float:
        """Wall-clock work done so far (past intervals + the current run)."""
        past = sum(
            end - start for start, end in self._intervals.get(job.job_id, [])
        )
        if job.job_id in self._running:
            past += self.clock - self._last_start[job.job_id]
        return past

    def _finish(self, job: Job) -> None:
        self.machine.release(job, self.clock)
        del self._running[job.job_id]
        started = self._last_start[job.job_id]
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
            # Jobs started at this very instant are marked unsuspendable:
            # suspending a zero-elapsed job would thrash (and record an
            # empty interval).  They still appear in the view because the
            # backfilling shadow must account for their processors.
            running_view = [
                RunningView(
                    job=job,
                    estimated_finish=self.clock
                    + max(job.estimate - self._executed(job), 1e-9),
                    suspendable=self._last_start[job.job_id] < self.clock,
                )
                for job in self._running.values()
            ]
            decision = self.scheduler.decide(
                self.clock,
                list(self._waiting),
                running_view,
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

        for job in self.workload:
            self._push(job.submit_time, _ARRIVAL, job, 0)

        while self._heap:
            batch_time = self._heap[0][0][0]
            self.clock = max(self.clock, batch_time)
            batch = []
            while self._heap and self._heap[0][0][0] == batch_time:
                key, job, epoch = heapq.heappop(self._heap)
                batch.append((key[1], job, epoch))

            for kind, job, epoch in batch:
                if kind == _FINISH:
                    assert job is not None
                    if self._epoch.get(job.job_id) != epoch:
                        continue  # stale: the job was suspended meanwhile
                    if job.job_id not in self._running:
                        continue
                    self._finish(job)
            for kind, job, _epoch in batch:
                if kind == _ARRIVAL:
                    assert job is not None
                    self._waiting.append(job)
                elif kind == _TICK:
                    self._tick_pending = False
            self._run_decisions()
            if self._waiting and not self._tick_pending:
                self._tick_pending = True
                self._push(
                    self.clock + self.decision_interval, _TICK, None, 0
                )

        if len(self._records) != len(self.workload):
            stuck = [j.job_id for j in self._waiting]
            raise SchedulingError(
                f"preemptive run completed {len(self._records)} of "
                f"{len(self.workload)} jobs (waiting: {stuck[:10]})"
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
