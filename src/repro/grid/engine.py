"""The grid simulation engine.

Orchestrates N :class:`~repro.grid.site.GridSite`\\ s under one virtual
clock.  Every arriving job is replicated to the K sites chosen by the
dispatch policy; the first site to *start* the job wins and the other
replicas are cancelled immediately (the multiple-simultaneous-requests
scheme of the paper's reference [12]).

A grid is a scheduler: :class:`_Metascheduler` implements the hooks
:class:`~repro.sim.engine.Simulator` calls and fans them out to the
sites, so a grid run is the one ``Simulator`` loop on the workload
re-wrapped to the sum of the sites' processors (the engine's machine is
the sum of the site machines).  It inherits that loop's same-timestamp
discipline: at each instant all completions, across all sites, release
their processors first, then scheduler reactions run, then timers, then
arrivals — so a decision at any site observes every simultaneous completion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError, SimulationError
from repro.grid.dispatch import DispatchPolicy, LeastLoadedDispatch
from repro.grid.site import GridSite
from repro.metrics.collector import CompletedJob, RunMetrics, summarize
from repro.sim.engine import Simulator
from repro.workload.job import Job, Workload

__all__ = ["GridSimulator", "GridResult", "SiteStats"]


@dataclass(frozen=True)
class SiteStats:
    """Per-site outcome of a grid run."""

    name: str
    procs: int
    jobs_run: int
    utilization: float
    cancelled_replicas: int


@dataclass(frozen=True)
class GridResult:
    """Everything one grid run produced."""

    workload_name: str
    dispatch_name: str
    replication: int
    metrics: RunMetrics
    sites: tuple[SiteStats, ...] = field(repr=False)
    site_assignments: dict[int, str] = field(repr=False, default_factory=dict)

    @property
    def completed(self) -> tuple[CompletedJob, ...]:
        return self.metrics.records

    def start_times(self) -> dict[int, float]:
        """job_id -> start time (see :meth:`RunMetrics.start_times`)."""
        return self.metrics.start_times()

    def site_of(self) -> dict[int, str]:
        """job_id -> winning site name."""
        return dict(self.site_assignments)


class _Metascheduler:
    """The scheduler hooks of a grid: dispatch, replicas and per-site timers.

    Site timers are deduplicated per site and fired in request order.  A
    wakeup asked for at this instant while the instant's TIMER is still in
    the batch being processed waits for a fresh TIMER, as a site's own
    event would have landed in the next batch.
    """

    def __init__(self, sites: list[GridSite], dispatch: DispatchPolicy) -> None:
        self.sites = sites
        self.dispatch = dispatch
        self.site_of: dict[int, int] = {}  # job_id -> winning site index
        self.cancelled = [0] * len(sites)
        self._pending_sites: dict[int, set[int]] = {}  # job_id -> site indices
        self._clock = 0.0
        self._site_timers: list[set[float]] = [set() for _ in sites]
        self._timers: dict[float, list[int]] = {}  # time -> sites, request order
        self._early: set[float] = set()  # instants armed before they came
        self._held: list[int] = []  # sites waiting for a fresh TIMER now
        self._request_wakeup = None

    def describe(self) -> str:
        return f"grid({self.dispatch.name}, K={self.dispatch.replication})"

    @property
    def queued_jobs(self) -> tuple[Job, ...]:
        return tuple(job for site in self.sites for job in site.scheduler.queued_jobs)

    def bind(self, machine, request_wakeup) -> None:
        self._request_wakeup = request_wakeup
        for index, site in enumerate(self.sites):
            site.bind(self._wakeup_for(index))

    def _wakeup_for(self, index: int):
        armed = self._site_timers[index]

        def request(time: float) -> None:
            when = max(time, self._clock)
            if when in armed:
                return
            armed.add(when)
            if when == self._clock and when in self._early:
                self._held.append(index)
            elif when in self._timers:
                self._timers[when].append(index)
            else:
                self._timers[when] = [index]
                if when > self._clock:
                    self._early.add(when)
                self._request_wakeup(when)

        return request

    # -- job lifecycle ------------------------------------------------------------

    def _handle_starts(self, site_index: int, jobs: list[Job]) -> list[Job]:
        """Commit starts and propagate replica cancellations, race-free.

        Ordering is what makes this correct: before ANY cancellation-freed
        scheduling pass (`poke`) runs at a loser site, every job committed
        so far has had its replicas withdrawn from every other site — so a
        poke can never hand out a job that already started elsewhere.
        Pokes run one at a time and their freed starts re-enter the commit
        queue, so cascades of arbitrary depth stay consistent.  Returns the
        committed jobs in commit order, the order the engine pushes their
        finishes in.
        """
        now = self._clock
        started: list[Job] = []
        work: list[tuple[int, Job]] = [(site_index, job) for job in jobs]
        pokes: list[int] = []
        while work or pokes:
            if work:
                where, job = work.pop(0)
                if job.job_id in self.site_of:
                    raise SimulationError(
                        f"job {job.job_id} started at two sites — cancellation raced"
                    )
                site = self.sites[where]
                site.machine.allocate(job, now)
                site.scheduler.notify_started(job, now)
                self.site_of[job.job_id] = where
                started.append(job)
                losers = self._pending_sites.pop(job.job_id, set()) - {where}
                for loser in losers:
                    self.cancelled[loser] += 1
                    self.sites[loser].scheduler.cancel(job, now)
                    pokes.append(loser)
            else:
                loser = pokes.pop(0)
                freed = self.sites[loser].scheduler.poke(now)
                work.extend((loser, job) for job in freed)
        return started

    # -- the hooks Simulator calls ---------------------------------------------------

    def on_arrival(self, job: Job, now: float) -> list[Job]:
        self._clock = now
        started: list[Job] = []
        # Membership is added as each site actually receives the replica,
        # so a start during this loop only cancels replicas that exist.
        pending = self._pending_sites[job.job_id] = set()
        for site in self.dispatch.choose(self.sites, job):
            if job.job_id in self.site_of:
                break  # an earlier replica in this loop already started it
            site_index = self.sites.index(site)
            pending.add(site_index)
            started += self._handle_starts(site_index, site.scheduler.on_arrival(job, now))
        return started

    def on_finish(self, job: Job, now: float) -> list[Job]:
        self._clock = now
        where = self.site_of[job.job_id]
        return self._handle_starts(where, self.sites[where].scheduler.on_finish(job, now))

    def on_wakeup(self, now: float) -> list[Job]:
        self._clock = now
        self._early.discard(now)
        due = self._timers.pop(now, [])
        if self._held:
            self._timers[now], self._held = self._held, []
            self._request_wakeup(now)
        started: list[Job] = []
        for site_index in due:
            self._site_timers[site_index].discard(now)
            started += self._handle_starts(
                site_index, self.sites[site_index].scheduler.on_wakeup(now)
            )
        return started

    def notify_started(self, job: Job, now: float) -> None:
        """Nothing to do: :meth:`_handle_starts` committed at the site."""

    def notify_finished(self, job: Job, now: float) -> None:
        site = self.sites[self.site_of[job.job_id]]
        site.machine.release(job, now)
        site.scheduler.notify_finished(job, now)


class GridSimulator:
    """Drives a workload through a metascheduler over several sites.

    ``workload.max_procs`` is interpreted as the *widest job bound* for
    validation only; each site has its own machine size and a job is
    dispatched only to sites it fits.
    """

    def __init__(
        self,
        workload: Workload,
        sites: list[GridSite],
        *,
        dispatch: DispatchPolicy | None = None,
    ) -> None:
        if not sites:
            raise ConfigurationError("a grid needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate site names: {names}")
        self.workload = workload
        self.sites = list(sites)
        self.dispatch = dispatch or LeastLoadedDispatch(1)
        widest = max((job.procs for job in workload), default=1)
        if widest > max(site.procs for site in sites):
            raise ConfigurationError(
                f"workload contains a {widest}-proc job no site can fit"
            )
        self._ran = False

    def run(self) -> GridResult:
        if self._ran:
            raise SimulationError("a GridSimulator instance can only run once")
        self._ran = True
        meta = _Metascheduler(self.sites, self.dispatch)
        total_procs = sum(site.procs for site in self.sites)
        simulator = Simulator(replace(self.workload, max_procs=total_procs), meta)
        result = simulator.run()
        jobs_run = Counter(meta.site_of.values())
        site_stats = tuple(
            SiteStats(
                name=site.name,
                procs=site.procs,
                jobs_run=jobs_run[index],
                utilization=site.machine.utilization(until=simulator.clock),
                cancelled_replicas=meta.cancelled[index],
            )
            for index, site in enumerate(self.sites)
        )
        return GridResult(
            workload_name=self.workload.name,
            dispatch_name=self.dispatch.name,
            replication=self.dispatch.replication,
            # Simulator's makespan runs to its last event, which may be a
            # stale reservation timer; summarize's ends at the last finish.
            metrics=summarize(result.metrics.records, utilization=result.metrics.utilization),
            sites=site_stats,
            site_assignments={
                job_id: self.sites[index].name for job_id, index in meta.site_of.items()
            },
        )
