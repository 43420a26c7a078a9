"""Dispatch policies: which K sites receive a job's simultaneous requests.

The HPDC paper's metascheduler sends each job to ``K`` sites at once.  The
choice of *which* K matters less than K itself, but the natural policies
are provided:

* :class:`LeastLoadedDispatch` — the K sites with the least committed
  work (queued + estimated running remainder) that can fit the job;
* :class:`RandomDispatch` — K feasible sites uniformly at random
  (seeded, reproducible);
* :class:`RoundRobinDispatch` — rotate through feasible sites.

All policies only consider sites whose machine is large enough for the
job; a job no site can fit is a configuration error surfaced at dispatch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.grid.site import GridSite
from repro.workload.job import Job

__all__ = [
    "DispatchPolicy",
    "LeastLoadedDispatch",
    "RandomDispatch",
    "RoundRobinDispatch",
]


class DispatchPolicy(ABC):
    """Chooses the replication target sites for each arriving job."""

    name: str = "base"

    def __init__(self, replication: int = 1) -> None:
        if replication < 1:
            raise ConfigurationError(f"replication must be >= 1, got {replication}")
        self.replication = replication

    def _feasible(self, sites: list[GridSite], job: Job) -> list[GridSite]:
        feasible = [site for site in sites if job.procs <= site.procs]
        if not feasible:
            raise ConfigurationError(
                f"job {job.job_id} needs {job.procs} procs but no site can "
                f"fit it (largest: {max(s.procs for s in sites)})"
            )
        return feasible

    def choose(self, sites: list[GridSite], job: Job) -> list[GridSite]:
        """The (up to) ``replication`` sites this job is submitted to."""
        feasible = self._feasible(sites, job)
        k = min(self.replication, len(feasible))
        return self._select(feasible, job, k)

    @abstractmethod
    def _select(self, feasible: list[GridSite], job: Job, k: int) -> list[GridSite]:
        """Pick ``k`` sites from the feasible list."""


class LeastLoadedDispatch(DispatchPolicy):
    """Prefer the sites with the least committed work per processor."""

    name = "least-loaded"

    def _select(self, feasible: list[GridSite], job: Job, k: int) -> list[GridSite]:
        ranked = sorted(
            feasible, key=lambda site: (site.committed_work / site.procs, site.name)
        )
        return ranked[:k]


class RandomDispatch(DispatchPolicy):
    """Uniformly random feasible sites (seeded)."""

    name = "random"

    def __init__(self, replication: int = 1, *, seed: int = 0) -> None:
        super().__init__(replication)
        self._rng = np.random.default_rng(seed)

    def _select(self, feasible: list[GridSite], job: Job, k: int) -> list[GridSite]:
        indices = self._rng.choice(len(feasible), size=k, replace=False)
        return [feasible[int(i)] for i in indices]


class RoundRobinDispatch(DispatchPolicy):
    """Rotate through feasible sites, K consecutive picks per job."""

    name = "round-robin"

    def __init__(self, replication: int = 1) -> None:
        super().__init__(replication)
        self._cursor = 0

    def _select(self, feasible: list[GridSite], job: Job, k: int) -> list[GridSite]:
        chosen = [
            feasible[(self._cursor + offset) % len(feasible)] for offset in range(k)
        ]
        self._cursor = (self._cursor + 1) % len(feasible)
        return chosen
