"""REFERENCE grid engine, kept verbatim.

This module freezes ``GridSimulator`` (``grid/engine.py``) as it stood
while the grid ran its own event loop: a second ``heapq`` with its own
counter, per-site TIMER events deduplicated per site, the same
finish -> timer -> arrival order and release-all-then-react batch as
:class:`repro.sim.engine.Simulator`, and the commit -> cancel -> poke
cascade that withdraws a job's losing replicas before any freed pass runs.
``tests/properties/test_prop_grid_equivalence.py`` requires the shipped
grid, which runs a metascheduler on the one ``Simulator`` loop, to
reproduce these per-job sites, starts and finishes, the completion order,
the per-site stats and the metric summaries exactly.

The class body is copied unchanged.  ``GridResult``, ``SiteStats``, the
sites and the dispatch policies come from the public API: they are the
inputs and the result records both sides share, not the loop under test.

Do not edit this file to follow the shipped code: its value is being the
independent original.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.grid.dispatch import DispatchPolicy, LeastLoadedDispatch
from repro.grid.engine import GridResult, SiteStats
from repro.grid.site import GridSite
from repro.metrics.collector import CompletedJob, summarize
from repro.sched.tol import EPS_SNAP
from repro.sim.events import EventKind
from repro.workload.job import Job, Workload

__all__ = ["GridSimulator"]


# -- grid/engine.py (verbatim from the parent commit) ---------------------------------


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
        self.clock = 0.0
        self._heap: list[tuple[tuple[float, int, int], int, Job | None]] = []
        self._counter = itertools.count()
        self._pending_sites: dict[int, set[int]] = {}  # job_id -> site indices
        self._started_at: dict[int, tuple[int, float]] = {}  # job_id -> (site, t)
        self._completed: list[CompletedJob] = []
        self._site_of_job: dict[int, str] = {}
        self._cancelled_at_site: dict[int, int] = {i: 0 for i in range(len(sites))}
        self._jobs_run_at_site: dict[int, int] = {i: 0 for i in range(len(sites))}
        self._timer_times: dict[int, set[float]] = {i: set() for i in range(len(sites))}
        self._ran = False

    # -- event plumbing ---------------------------------------------------------

    def _push(self, time: float, kind: EventKind, site: int, job: Job | None) -> None:
        heapq.heappush(
            self._heap, ((time, int(kind), next(self._counter)), site, job)
        )

    def _request_wakeup_for(self, site_index: int):
        def request(time: float) -> None:
            when = max(time, self.clock)
            if when not in self._timer_times[site_index]:
                self._timer_times[site_index].add(when)
                self._push(when, EventKind.TIMER, site_index, None)

        return request

    # -- job lifecycle ------------------------------------------------------------

    def _commit_start(self, site_index: int, job: Job) -> None:
        """Allocate and record a start the local scheduler decided on."""
        if job.job_id in self._started_at:
            raise SimulationError(
                f"job {job.job_id} started at two sites — cancellation raced"
            )
        site = self.sites[site_index]
        site.machine.allocate(job, self.clock)
        site.scheduler.notify_started(job, self.clock)
        self._started_at[job.job_id] = (site_index, self.clock)
        self._jobs_run_at_site[site_index] += 1
        self._site_of_job[job.job_id] = site.name
        self._push(
            self.clock + job.effective_runtime, EventKind.JOB_FINISH, site_index, job
        )

    def _handle_starts(self, site_index: int, jobs: list[Job]) -> None:
        """Commit starts and propagate replica cancellations, race-free.

        Ordering is what makes this correct: before ANY cancellation-freed
        scheduling pass (`poke`) runs at a loser site, every job committed
        so far has had its replicas withdrawn from every other site — so a
        poke can never hand out a job that already started elsewhere.
        Pokes run one at a time and their freed starts re-enter the commit
        queue, so cascades of arbitrary depth stay consistent.
        """
        work: list[tuple[int, Job]] = [(site_index, job) for job in jobs]
        pokes: list[int] = []
        while work or pokes:
            if work:
                where, job = work.pop(0)
                self._commit_start(where, job)
                losers = self._pending_sites.pop(job.job_id, set()) - {where}
                for loser in losers:
                    self._cancelled_at_site[loser] += 1
                    self.sites[loser].scheduler.cancel(job, self.clock)
                    pokes.append(loser)
            else:
                loser = pokes.pop(0)
                freed = self.sites[loser].scheduler.poke(self.clock)
                work.extend((loser, job) for job in freed)

    # -- main loop -----------------------------------------------------------------

    def run(self) -> GridResult:
        if self._ran:
            raise SimulationError("a GridSimulator instance can only run once")
        self._ran = True

        for index, site in enumerate(self.sites):
            site.bind(self._request_wakeup_for(index))
        for job in self.workload:
            # Site -1 marks a metascheduler arrival (dispatch happens then).
            self._push(job.submit_time, EventKind.JOB_ARRIVAL, -1, job)
        expected = len(self.workload)

        while self._heap:
            batch_time = self._heap[0][0][0]
            if batch_time < self.clock - EPS_SNAP:
                raise SimulationError(
                    f"time went backwards: {self.clock} -> {batch_time}"
                )
            self.clock = max(self.clock, batch_time)
            batch: list[tuple[int, EventKind, int, Job | None]] = []
            while self._heap and self._heap[0][0][0] == batch_time:
                key, site, job = heapq.heappop(self._heap)
                batch.append((key[1], EventKind(key[1]), site, job))

            finishes = [
                (site, job)
                for _, kind, site, job in batch
                if kind is EventKind.JOB_FINISH
            ]
            for site_index, job in finishes:
                assert job is not None
                self._release_finished(site_index, job)
            for site_index, job in finishes:
                assert job is not None
                started = self.sites[site_index].scheduler.on_finish(job, self.clock)
                self._handle_starts(site_index, started)
            for _, kind, site_index, job in batch:
                if kind is EventKind.TIMER:
                    self._timer_times[site_index].discard(self.clock)
                    started = self.sites[site_index].scheduler.on_wakeup(self.clock)
                    self._handle_starts(site_index, started)
                elif kind is EventKind.JOB_ARRIVAL:
                    assert job is not None
                    self._dispatch_arrival(job)

        if len(self._completed) != expected:
            raise SchedulingError(
                f"grid run completed {len(self._completed)} of {expected} jobs"
            )

        metrics = summarize(self._completed)
        site_stats = tuple(
            SiteStats(
                name=site.name,
                procs=site.procs,
                jobs_run=self._jobs_run_at_site[index],
                utilization=site.machine.utilization(until=self.clock),
                cancelled_replicas=self._cancelled_at_site[index],
            )
            for index, site in enumerate(self.sites)
        )
        return GridResult(
            workload_name=self.workload.name,
            dispatch_name=self.dispatch.name,
            replication=self.dispatch.replication,
            metrics=metrics,
            sites=site_stats,
            site_assignments=dict(self._site_of_job),
        )

    def _dispatch_arrival(self, job: Job) -> None:
        chosen = self.dispatch.choose(self.sites, job)
        indices = [self.sites.index(site) for site in chosen]
        # Membership is added as each site actually receives the replica,
        # so a start during this loop only cancels replicas that exist.
        self._pending_sites[job.job_id] = set()
        for site_index in indices:
            if job.job_id in self._started_at:
                break  # an earlier replica in this loop already started it
            self._pending_sites.setdefault(job.job_id, set()).add(site_index)
            started = self.sites[site_index].scheduler.on_arrival(job, self.clock)
            self._handle_starts(site_index, started)

    def _release_finished(self, site_index: int, job: Job) -> None:
        site = self.sites[site_index]
        started = self._started_at.get(job.job_id)
        if started is None or started[0] != site_index:
            raise SimulationError(
                f"finish event for job {job.job_id} at site {site.name} "
                "which never started there"
            )
        site.machine.release(job, self.clock)
        site.scheduler.notify_finished(job, self.clock)
        self._completed.append(CompletedJob(job, started[1], self.clock))
