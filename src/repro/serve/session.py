"""Live scheduling sessions: one authoritative simulator, forked queries.

A :class:`Session` is the serve layer's core object — the paper's
offline counterfactuals turned into a long-running service.  It holds
one *live* :class:`~repro.sim.engine.Simulator` per scheduling policy
(a primary plus optional alternatives, all fed the identical arrival
stream), accepts streaming job submissions, advances simulated time on
demand, and answers what-if questions by **forking** the live state:
every query takes a :meth:`~repro.sim.engine.Simulator.snapshot` of the
paused simulator, plays the branch forward in isolation, and leaves the
authoritative state untouched.  Forks are cheap (PR 5's checkpoint
machinery), so many queries can run against one state — concurrently,
via the HTTP layer's handler threads.

The state machine: the live simulators are always paused at a *batch
boundary* at watermark ``now`` (:meth:`Session.clock`).  Mutations —
:meth:`Session.submit` buffering future arrivals,
:meth:`Session.advance` moving ``now`` forward — keep that invariant:
submissions into the simulated past and non-monotone advances raise
:class:`~repro.errors.SimulationError` immediately (the engine enforces
the same invariants independently, so drift is structurally impossible
rather than merely discouraged).

Queries are answered by a :class:`SessionBranch` — an immutable fork of
(snapshot, submitted jobs) that is pure with respect to the session, so
a caller may take a branch under a lock and drain it outside:

* :meth:`SessionBranch.what_if` — append a hypothetical job (or none),
  drain the branch to completion, and report when every pending job
  would start/finish, with full branch metrics;
* :meth:`SessionBranch.forecast` — advance the branch a horizon into
  the future without draining and report the queue/machine state there.

Metrics modes: ``"bounded"`` (default; the live simulators feed a
:class:`~repro.metrics.streaming.StreamingMetrics` sink, holding O(1)
metric state no matter how many jobs stream through) and ``"exact"``
(full per-job records retained, byte-identical to batch runs — the
differential-testing fallback).  In both modes a branch's what-if
answer is byte-identical to an independent simulation of the same
arrival history (pinned by
``tests/properties/test_prop_serve_equivalence.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.metrics.collector import CompletedJob, MetricSummary, RunMetrics
from repro.metrics.streaming import StreamingMetrics
from repro.sched.base import Scheduler
from repro.sim.engine import SimulationSnapshot, Simulator
from repro.workload.job import Job, Workload
from repro.workload.table import JobTable

__all__ = [
    "Session",
    "SessionBranch",
    "SessionSnapshot",
    "SessionStats",
    "WhatIfReport",
    "QueueForecast",
    "JobForecast",
    "RunningJob",
]

#: Largest job id a session accepts.  Ids arrive from HTTP clients, so
#: submission bounds them rather than trusting the caller.
_MAX_JOB_ID = 10**12 - 1

#: ``"bounded"`` feeds a StreamingMetrics sink; ``"exact"`` runs without one.
_METRICS_MODES = ("exact", "bounded")


@dataclass(frozen=True)
class JobForecast:
    """Predicted outcome of one pending job in a drained branch."""

    job_id: int
    submit_time: float
    start_time: float
    finish_time: float

    @property
    def wait(self) -> float:
        return max(self.start_time - self.submit_time, 0.0)


@dataclass(frozen=True)
class RunningJob:
    """One job occupying processors at a forecast horizon."""

    job_id: int
    procs: int
    start_time: float
    estimated_finish: float


@dataclass(frozen=True)
class WhatIfReport:
    """Answer to "what happens to my queue (plus maybe this job)?".

    Produced by draining a forked branch to completion; the live session
    is untouched.  ``target`` is the hypothetical job's forecast (None
    when the query was about the existing queue only), ``pending`` maps
    every job that had not finished at fork time to its predicted
    outcome, and ``metrics`` is the branch's full end-of-run metrics —
    byte-identical to an independent simulation of the same history.
    """

    policy: str
    asked_at: float
    target: JobForecast | None
    pending: tuple[JobForecast, ...]
    drained_at: float
    metrics: RunMetrics = field(repr=False)


@dataclass(frozen=True)
class QueueForecast:
    """The branch's queue/machine state a horizon into the future."""

    policy: str
    asked_at: float
    horizon: float
    at_time: float
    running: tuple[RunningJob, ...]
    queued_ids: tuple[int, ...]
    free_procs: int
    completed_in_horizon: int
    started: tuple[JobForecast, ...]
    utilization: float


@dataclass(frozen=True)
class SessionStats:
    """A point-in-time health/metrics card for the live session."""

    name: str
    policy: str
    policies: tuple[str, ...]
    clock: float
    total_procs: int
    free_procs: int
    submitted: int
    completed: int
    running: int
    queued: int
    utilization: float
    overall: MetricSummary
    wait_p50: float
    wait_p99: float
    metrics_mode: str
    records_held: int


@dataclass(frozen=True)
class SessionSnapshot:
    """A full, independent copy of a session's state.

    Taken by :meth:`Session.snapshot`; turned back into a live session
    by :meth:`Session.restore` (or :meth:`Session.fork`, the one-step
    combination).  Every embedded simulator snapshot is an independent
    fork, so the snapshot stays valid while the originating session runs
    on — the session-level analogue of
    :class:`~repro.sim.engine.SimulationSnapshot`.
    """

    name: str
    total_procs: int
    clock: float
    jobs: tuple[Job, ...]
    metrics_mode: str
    primary: str
    sim_snapshots: dict[str, SimulationSnapshot]
    next_id: int


class SessionBranch:
    """An immutable fork of a session, ready to answer one query.

    Constructed by :meth:`Session.branch` under whatever lock the caller
    uses; the expensive part — draining or advancing the branch — then
    runs without touching the session, which is what lets the async and
    HTTP layers multiplex many in-flight queries over one state.
    """

    def __init__(
        self,
        *,
        policy: str,
        snapshot: SimulationSnapshot,
        jobs: tuple[Job, ...],
        total_procs: int,
        now: float,
        name: str,
    ) -> None:
        self.policy = policy
        self._snapshot = snapshot
        self._jobs = jobs
        self._total_procs = total_procs
        self._now = now
        self._name = name

    # -- internals ------------------------------------------------------------

    def _pending_ids(self, extra: tuple[Job, ...] = ()) -> list[int]:
        """Ids of jobs not yet finished at fork time (queued, running,
        undelivered) plus any hypothetical extras."""
        snap = self._snapshot
        ids = [job.job_id for job in snap.scheduler.queued_jobs]
        ids += [job.job_id for job, _ in snap.scheduler.running_jobs]
        ids += [job.job_id for job in self._jobs[snap.delivered :]]
        ids += [job.job_id for job in extra]
        return ids

    def _resume(self, workload: Workload, watch_ids: list[int]) -> Simulator:
        snap = self._snapshot
        if snap.metrics_sink is not None:
            sink = snap.metrics_sink.fork()
            for job_id in watch_ids:
                sink.watch(job_id)
            return Simulator.resume(snap, workload, metrics_sink=sink)
        return Simulator.resume(snap, workload)

    def _record_for(self, sim: Simulator, metrics: RunMetrics | None, job_id: int):
        if sim.metrics_sink is not None:
            return sim.metrics_sink.watched_record(job_id)
        source = metrics.records if metrics is not None else sim.completed_records
        for record in source:
            if record.job.job_id == job_id:
                return record
        return None

    @staticmethod
    def _forecast(record: CompletedJob) -> JobForecast:
        return JobForecast(
            job_id=record.job.job_id,
            submit_time=record.job.submit_time,
            start_time=record.start_time,
            finish_time=record.finish_time,
        )

    # -- queries --------------------------------------------------------------

    def what_if(self, job: Job | None = None) -> WhatIfReport:
        """Drain the branch (plus an optional hypothetical job) and report.

        The hypothetical job, if any, must be submitted at or after the
        branch's fork time; its id defaults to the session's next free
        one and must not collide with an existing job.
        """
        extra: tuple[Job, ...] = ()
        if job is not None:
            if job.submit_time < self._now:
                raise SimulationError(
                    f"what-if job submitted at t={job.submit_time}, in the "
                    f"simulated past (session time is {self._now})"
                )
            taken = {existing.job_id for existing in self._jobs}
            if job.job_id in taken:
                raise SimulationError(
                    f"what-if job id {job.job_id} collides with a submitted job"
                )
            extra = (job,)
        jobs = self._jobs + extra
        workload = Workload.from_jobs(jobs, self._total_procs, name=self._name)
        watch_ids = self._pending_ids(extra)
        sim = self._resume(workload, watch_ids)
        result = sim.drain()
        pending = []
        for job_id in watch_ids:
            if job is not None and job_id == job.job_id:
                continue
            record = self._record_for(sim, result.metrics, job_id)
            if record is not None:
                pending.append(self._forecast(record))
        target = None
        if job is not None:
            record = self._record_for(sim, result.metrics, job.job_id)
            if record is None:
                raise SimulationError(
                    f"what-if job {job.job_id} never completed in the branch"
                )
            target = self._forecast(record)
        pending.sort(key=lambda p: (p.start_time, p.job_id))
        return WhatIfReport(
            policy=self.policy,
            asked_at=self._now,
            target=target,
            pending=tuple(pending),
            drained_at=sim.clock,
            metrics=result.metrics,
        )

    def forecast(self, horizon: float) -> QueueForecast:
        """Advance the branch ``horizon`` seconds and report the state there."""
        if not math.isfinite(horizon) or horizon < 0:
            raise SimulationError(
                f"forecast horizon must be finite and >= 0, got {horizon}"
            )
        at_time = self._now + horizon
        workload = Workload.from_jobs(self._jobs, self._total_procs, name=self._name)
        watch_ids = self._pending_ids()
        sim = self._resume(workload, watch_ids)
        sim.run_until_time(at_time)
        running = tuple(
            RunningJob(
                job_id=job.job_id,
                procs=job.procs,
                start_time=start,
                estimated_finish=start + job.estimate,
            )
            for job, start in sorted(
                sim.scheduler.running_jobs, key=lambda pair: pair[0].job_id
            )
        )
        started = [
            JobForecast(r.job_id, math.nan, r.start_time, math.nan)
            for r in running
            if r.start_time >= self._now
        ]
        for job_id in watch_ids:
            record = self._record_for(sim, None, job_id)
            if record is not None and record.start_time >= self._now:
                started.append(self._forecast(record))
        started.sort(key=lambda p: (p.start_time, p.job_id))
        queued = tuple(
            sorted(job.job_id for job in sim.scheduler.queued_jobs)
        )
        return QueueForecast(
            policy=self.policy,
            asked_at=self._now,
            horizon=horizon,
            at_time=at_time,
            running=running,
            queued_ids=queued,
            free_procs=sim.machine.free_procs,
            completed_in_horizon=sim.completed_count - self._snapshot.completed_count,
            started=tuple(started),
            utilization=sim.machine.utilization(),
        )


class Session:
    """A live scheduler-as-a-service session.

    Parameters:

    * ``max_procs`` — machine size the session schedules onto.
    * ``scheduler`` / ``priority`` — the *primary* policy: a registry
      kind (``easy``, ``cons``, ...; see
      :func:`repro.experiments.runner.make_scheduler`) plus priority
      name, or a ready :class:`~repro.sched.base.Scheduler` instance.
    * ``alternatives`` — extra policies fed the same arrival stream,
      each a kind string (inherits ``priority``), a ``"kind:PRIORITY"``
      string, or a :class:`~repro.sched.base.Scheduler` instance.
      What-if queries can target any of them: *"when would this start
      under cons vs EASY?"* is ``what_if(..., policy="cons")`` against a
      session with ``alternatives=("cons",)``.
    * ``metrics`` — ``"bounded"`` (default, O(1) metric memory) or
      ``"exact"`` (full records; see module docstring).

    Not thread-safe by itself; the async and HTTP layers serialize
    mutations and fork branches under a lock.
    """

    def __init__(
        self,
        max_procs: int,
        *,
        scheduler: str | Scheduler = "easy",
        priority: str = "FCFS",
        alternatives: tuple = (),
        metrics: str = "bounded",
        name: str = "live",
        scheduler_options: dict | None = None,
    ) -> None:
        if max_procs <= 0:
            raise SimulationError(f"max_procs must be > 0, got {max_procs}")
        if metrics not in _METRICS_MODES:
            raise SimulationError(
                f"unknown metrics mode {metrics!r}; expected one of {_METRICS_MODES}"
            )
        self.name = name
        self.total_procs = max_procs
        self.metrics_mode = metrics
        self._default_priority = priority
        self._options = dict(scheduler_options or {})
        self._jobs: list[Job] = []
        self._dirty = False
        self._now = 0.0
        self._next_id = 1
        self._sims: dict[str, Simulator] = {}
        primary_name = self._add_policy(scheduler, priority)
        self.primary = primary_name
        for spec in alternatives:
            self._add_policy(spec, priority)

    # -- policy management ----------------------------------------------------

    def _add_policy(self, spec, priority: str) -> str:
        from repro.experiments.runner import make_scheduler

        if isinstance(spec, Scheduler):
            name, instance = spec.describe(), spec
        elif isinstance(spec, str):
            if ":" in spec:
                kind, _, policy_priority = spec.partition(":")
            else:
                kind, policy_priority = spec, priority
            name = spec
            instance = make_scheduler(kind, policy_priority, **self._options)
        else:
            raise SimulationError(
                f"policy spec must be a kind string or Scheduler, got {spec!r}"
            )
        if name in self._sims:
            raise SimulationError(f"duplicate session policy {name!r}")
        sink = (
            StreamingMetrics(reservoir_seed=len(self._sims))
            if self.metrics_mode == "bounded"
            else None
        )
        sim = Simulator(
            Workload((), self.total_procs, name=self.name),
            instance,
            metrics_sink=sink,
        )
        sim.run_until_time(self._now)  # prime at the current boundary
        self._sims[name] = sim
        return name

    @property
    def policies(self) -> tuple[str, ...]:
        """Names of every policy this session simulates."""
        return tuple(self._sims)

    def _sim(self, policy: str | None) -> tuple[str, Simulator]:
        name = self.primary if policy is None else policy
        try:
            return name, self._sims[name]
        except KeyError:
            raise SimulationError(
                f"unknown policy {name!r}; this session has {self.policies}"
            ) from None

    # -- submissions and time -------------------------------------------------

    @property
    def clock(self) -> float:
        """Current simulated time (the live watermark)."""
        return self._now

    def submit(
        self,
        job: Job | None = None,
        *,
        runtime: float | None = None,
        procs: int | None = None,
        estimate: float | None = None,
        submit_time: float | None = None,
        job_id: int | None = None,
    ) -> int:
        """Queue a job for arrival; returns its id.

        Either pass a ready :class:`~repro.workload.job.Job` or the
        field values (``submit_time`` defaults to *now*, ``estimate`` to
        the runtime, the id to the next free one).  Submissions must not
        land in the simulated past — the session's time has already been
        played beyond them — and ids must be unique; both violations
        raise :class:`~repro.errors.SimulationError`.
        """
        if job is None:
            if runtime is None or procs is None:
                raise SimulationError(
                    "submit() needs a Job or at least runtime= and procs="
                )
            job = Job(
                job_id=self._next_id if job_id is None else job_id,
                submit_time=self._now if submit_time is None else submit_time,
                runtime=runtime,
                estimate=estimate if estimate is not None else runtime,
                procs=procs,
            )
        if job.submit_time < self._now:
            raise SimulationError(
                f"cannot submit job {job.job_id} at t={job.submit_time}: the "
                f"session already simulated up to t={self._now} "
                "(submissions into the simulated past would silently rewrite "
                "history; this session refuses instead)"
            )
        if job.job_id > _MAX_JOB_ID:
            raise SimulationError(
                f"job id {job.job_id} exceeds the maximum {_MAX_JOB_ID}"
            )
        if any(existing.job_id == job.job_id for existing in self._jobs):
            raise SimulationError(f"duplicate job id {job.job_id}")
        self._jobs.append(job)
        self._next_id = max(self._next_id, job.job_id + 1)
        self._dirty = True
        return job.job_id

    def submit_table(self, table: JobTable) -> tuple[int, ...]:
        """Bulk-queue every job of a columnar table; returns the ids.

        The table analogue of calling :meth:`submit` per row, with the
        same refusals (no submissions into the simulated past, no id
        collisions, ids below the reservation base) — but checked over
        whole columns and materialized once through the trusted bulk
        constructor, so feeding a session a trace segment costs no
        per-job Python validation.  The table itself proved the per-row
        invariants at construction.
        """
        n = len(table)
        if n == 0:
            return ()
        import numpy as np

        submit = table.columns["submit_time"]
        past = submit < self._now
        if past.any():
            index = int(np.argmax(past))
            job_id = int(table.columns["job_id"][index])
            raise SimulationError(
                f"cannot submit job {job_id} at t={float(submit[index])}: the "
                f"session already simulated up to t={self._now} "
                "(submissions into the simulated past would silently rewrite "
                "history; this session refuses instead)"
            )
        ids = table.columns["job_id"]
        if table.columns["procs"].max() > self.total_procs:
            index = int(np.argmax(table.columns["procs"] > self.total_procs))
            raise SimulationError(
                f"job {int(ids[index])} needs "
                f"{int(table.columns['procs'][index])} procs but the session "
                f"machine has {self.total_procs}"
            )
        if int(ids.max()) > _MAX_JOB_ID:
            index = int(np.argmax(ids > _MAX_JOB_ID))
            raise SimulationError(
                f"job id {int(ids[index])} exceeds the maximum {_MAX_JOB_ID}"
            )
        # Duplicates *within* the table were rejected at its construction;
        # only collisions against already-submitted jobs remain.
        taken = np.fromiter(
            (job.job_id for job in self._jobs), dtype=ids.dtype, count=len(self._jobs)
        )
        collisions = np.isin(ids, taken)
        if collisions.any():
            raise SimulationError(
                f"duplicate job id {int(ids[int(np.argmax(collisions))])}"
            )
        self._jobs.extend(Job._from_trusted_columns(table.field_lists()))
        self._next_id = max(self._next_id, int(ids.max()) + 1)
        self._dirty = True
        return tuple(int(job_id) for job_id in ids)

    def _flush(self) -> None:
        """Push buffered submissions into every live simulator."""
        if not self._dirty:
            return
        workload = Workload.from_jobs(self._jobs, self.total_procs, name=self.name)
        self._jobs = list(workload.jobs)
        for sim in self._sims.values():
            sim.extend_workload(workload)
        self._dirty = False

    def advance(self, to_time: float | None = None, *, dt: float | None = None) -> float:
        """Play every policy forward to ``to_time`` (or by ``dt`` seconds).

        Time is monotone: advancing behind the current clock raises
        :class:`~repro.errors.SimulationError`.  Advancing beyond the
        last submitted arrival is fine — running jobs keep finishing and
        the queue drains; a later :meth:`submit` continues the stream.
        Returns the new clock.
        """
        if (to_time is None) == (dt is None):
            raise SimulationError("advance() needs exactly one of to_time= or dt=")
        if dt is not None:
            if not math.isfinite(dt) or dt < 0:
                raise SimulationError(f"advance() dt must be finite and >= 0, got {dt}")
            to_time = self._now + dt
        assert to_time is not None
        if to_time < self._now:
            raise SimulationError(
                f"advance() targets must be non-decreasing: asked for "
                f"t={to_time} but the session is already at t={self._now}"
            )
        self._flush()
        for sim in self._sims.values():
            sim.run_until_time(to_time)
        self._now = to_time
        return self._now

    # -- queries --------------------------------------------------------------

    def branch(self, policy: str | None = None) -> SessionBranch:
        """Fork one policy's live state into an immutable query branch.

        Cheap (one simulator snapshot); the branch then answers
        :meth:`~SessionBranch.what_if` / :meth:`~SessionBranch.forecast`
        without touching the session, so callers may drain it outside
        any lock.
        """
        self._flush()
        name, sim = self._sim(policy)
        return SessionBranch(
            policy=name,
            snapshot=sim.snapshot(),
            jobs=tuple(self._jobs),
            total_procs=self.total_procs,
            now=self._now,
            name=self.name,
        )

    def what_if(
        self,
        job: Job | None = None,
        *,
        runtime: float | None = None,
        procs: int | None = None,
        estimate: float | None = None,
        submit_time: float | None = None,
        policy: str | None = None,
    ) -> WhatIfReport:
        """Answer "when would this job start (and my queue finish)?".

        Builds the hypothetical job exactly like :meth:`submit` — but
        nothing is ever submitted: the question is answered on a fork
        and discarded.  With no job at all, reports the drain of the
        existing queue.  ``policy`` targets an alternative scheduler.
        """
        if job is None and runtime is not None:
            if procs is None:
                raise SimulationError("what_if() needs procs= with runtime=")
            job = Job(
                job_id=self._next_id,
                submit_time=self._now if submit_time is None else submit_time,
                runtime=runtime,
                estimate=estimate if estimate is not None else runtime,
                procs=procs,
            )
        return self.branch(policy).what_if(job)

    def queue_forecast(
        self, horizon: float, *, policy: str | None = None
    ) -> QueueForecast:
        """What the queue and machine look like ``horizon`` seconds out."""
        return self.branch(policy).forecast(horizon)

    # -- snapshot / fork ------------------------------------------------------

    def snapshot(self) -> SessionSnapshot:
        """Capture the whole session as an independent copy."""
        self._flush()
        return SessionSnapshot(
            name=self.name,
            total_procs=self.total_procs,
            clock=self._now,
            jobs=tuple(self._jobs),
            metrics_mode=self.metrics_mode,
            primary=self.primary,
            sim_snapshots={
                name: sim.snapshot() for name, sim in self._sims.items()
            },
            next_id=self._next_id,
        )

    @classmethod
    def restore(cls, snapshot: SessionSnapshot) -> "Session":
        """Rebuild a live session from a :class:`SessionSnapshot`."""
        session = cls.__new__(cls)
        session.name = snapshot.name
        session.total_procs = snapshot.total_procs
        session.metrics_mode = snapshot.metrics_mode
        session._default_priority = "FCFS"
        session._options = {}
        session._jobs = list(snapshot.jobs)
        session._dirty = False
        session._now = snapshot.clock
        session._next_id = snapshot.next_id
        session.primary = snapshot.primary
        workload = Workload.from_jobs(
            snapshot.jobs, snapshot.total_procs, name=snapshot.name
        )
        session._sims = {
            name: Simulator.resume(sim_snapshot, workload)
            for name, sim_snapshot in snapshot.sim_snapshots.items()
        }
        return session

    def fork(self) -> "Session":
        """An independent copy of the live session (snapshot + restore)."""
        return Session.restore(self.snapshot())

    # -- introspection --------------------------------------------------------

    def metrics(self, policy: str | None = None) -> RunMetrics:
        """Aggregates over every job completed so far under ``policy``."""
        self._flush()
        _, sim = self._sim(policy)
        utilization = sim.machine.utilization()
        if sim.metrics_sink is not None:
            return sim.metrics_sink.run_metrics(utilization=utilization)
        from repro.metrics.collector import summarize

        return summarize(sim.completed_records, utilization=utilization)

    def stats(self, policy: str | None = None) -> SessionStats:
        """A point-in-time card of queue depth, utilization, and metrics."""
        self._flush()
        name, sim = self._sim(policy)
        sink = sim.metrics_sink
        if sink is not None:
            overall = sink.overall_summary()
            wait_p50 = sink.wait_quantile(0.5)
            wait_p99 = sink.wait_quantile(0.99)
            records_held = sink.records_held
        else:
            records = sim.completed_records
            overall = MetricSummary.of(list(records))
            waits = sorted(r.wait for r in records)
            wait_p50 = waits[len(waits) // 2] if waits else math.nan
            wait_p99 = waits[min(len(waits) - 1, int(0.99 * len(waits)))] if waits else math.nan
            records_held = len(records)
        return SessionStats(
            name=self.name,
            policy=name,
            policies=self.policies,
            clock=self._now,
            total_procs=self.total_procs,
            free_procs=sim.machine.free_procs,
            submitted=len(self._jobs),
            completed=sim.completed_count,
            running=len(sim.scheduler.running_jobs),
            queued=sim.scheduler.queue_length,
            utilization=sim.machine.utilization(),
            overall=overall,
            wait_p50=wait_p50,
            wait_p99=wait_p99,
            metrics_mode=self.metrics_mode,
            records_held=records_held,
        )

    def pending_jobs(self, policy: str | None = None) -> tuple[Job, ...]:
        """Jobs submitted but not yet finished under ``policy``."""
        self._flush()
        _, sim = self._sim(policy)
        queued = list(sim.scheduler.queued_jobs)
        running = [job for job, _ in sim.scheduler.running_jobs]
        future = [
            job for job in self._jobs if job.submit_time >= sim.watermark
        ]
        seen: set[int] = set()
        out = []
        for job in itertools.chain(queued, running, future):
            if job.job_id not in seen:
                seen.add(job.job_id)
                out.append(job)
        return tuple(sorted(out, key=lambda j: (j.submit_time, j.job_id)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session {self.name!r} t={self._now} jobs={len(self._jobs)} "
            f"policies={list(self._sims)}>"
        )
