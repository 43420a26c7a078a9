"""A grid site: one machine plus one local scheduler."""

from __future__ import annotations

from repro.cluster.machine import Machine
from repro.errors import ConfigurationError
from repro.sched.base import Scheduler

__all__ = ["GridSite"]


class GridSite:
    """One cluster participating in the grid.

    The site owns its machine and local scheduler; the grid's
    metascheduler binds them and routes the simulator's hooks to them.
    ``name`` appears in per-site reports.
    """

    def __init__(self, name: str, procs: int, scheduler: Scheduler) -> None:
        if procs <= 0:
            raise ConfigurationError(f"site {name!r} needs > 0 procs, got {procs}")
        self.name = name
        self.procs = procs
        self.scheduler = scheduler
        self.machine = Machine(procs)

    def bind(self, request_wakeup) -> None:
        """Attach scheduler to machine; the metascheduler supplies per-site wakeups."""
        self.scheduler.bind(self.machine, request_wakeup)

    @property
    def queued_work(self) -> float:
        """Estimated processor-seconds waiting in the local queue.

        The load signal used by least-loaded dispatch — the same
        "aggregate queued demand" proxy the HPDC paper's metascheduler
        uses (a real deployment would query each site's scheduler).
        """
        return sum(job.estimated_area for job in self.scheduler.queued_jobs)

    @property
    def committed_work(self) -> float:
        """Queued demand plus the estimated remaining work of running jobs."""
        running = sum(
            job.procs * job.estimate for job, _ in self.scheduler.running_jobs
        )
        return self.queued_work + running

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GridSite {self.name} procs={self.procs} {self.scheduler.describe()}>"
