"""Queue priority policies (paper Section 2).

A priority policy orders the idle queue.  The paper studies three:

* **FCFS** — priority is wait time: earliest submission first.
* **SJF** — shortest job first by *user estimated* runtime (the scheduler
  cannot see actual runtimes).
* **XFactor** — largest expansion factor first, where
  ``xfactor = (wait + estimated_runtime) / estimated_runtime``.  XFactor
  grows quickly for short jobs, so it implicitly favours them while still
  aging long waiters.

Two more are provided for completeness and ablations: **LJF** (longest
first) and **SmallestFirst** (narrowest first).

A policy maps ``(job, now)`` to a sort key; *smaller keys run first*.
Every key ends with ``(submit_time, job_id)`` so orderings are total and
deterministic, which keeps whole simulations reproducible.

:attr:`PriorityPolicy.is_dynamic` is a load-bearing performance flag, not
documentation: the scheduler base class keeps the idle queue of a
*static* policy (``is_dynamic`` is False) sorted incrementally by binary
insertion and never re-sorts it, so a policy whose keys depend on ``now``
MUST declare ``is_dynamic = True`` or queues will silently serve a stale
order.  Static keys must ignore the ``now`` argument entirely.

Policies hold no per-run state: a key is a function of ``(job, now)``
alone.  The scheduler base class therefore shares one policy instance
across runs and across :meth:`~repro.sched.base.Scheduler.fork`, and a
policy needs no reset or copy hook.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Sequence

from repro.errors import ConfigurationError
from repro.workload.job import Job

__all__ = [
    "PriorityPolicy",
    "FCFSPriority",
    "SJFPriority",
    "LJFPriority",
    "XFactorPriority",
    "SmallestFirstPriority",
    "xfactor",
    "policy_by_name",
    "PRIORITY_POLICIES",
]


def xfactor(job: Job, now: float) -> float:
    """Expansion factor of a waiting job at time ``now``.

    ``(wait + estimated_runtime) / estimated_runtime``; equals 1.0 at
    submission and grows linearly with waiting time, with slope inversely
    proportional to the estimate.
    """
    wait = max(now - job.submit_time, 0.0)
    return (wait + job.estimate) / job.estimate


class PriorityPolicy(ABC):
    """Orders the idle queue; smaller keys are scheduled first."""

    #: Short name used in reports and the CLI.
    name: str = "base"

    @abstractmethod
    def key(self, job: Job, now: float) -> tuple:
        """Sort key for ``job`` at time ``now`` (smaller = higher priority)."""

    def keys(self, jobs: Sequence[Job], now: float) -> list[tuple]:
        """``[self.key(job, now) for job in jobs]``; overridable in bulk."""
        key = self.key
        return [key(job, now) for job in jobs]

    def sort(self, jobs: Sequence[Job], now: float) -> list[Job]:
        """Return ``jobs`` ordered from highest to lowest priority (stably).

        Input already strictly increasing by key is copied, not sorted."""
        keys = self.keys(jobs, now)
        if all(map(lt, keys, islice(keys, 1, None))):
            return list(jobs)
        return [jobs[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]

    @property
    def is_dynamic(self) -> bool:
        """True if keys change as time passes (the order must be checked).

        Static policies (the False default) get an incrementally
        maintained sorted queue from :class:`repro.sched.base.Scheduler`;
        their :meth:`key` must therefore be a pure function of the job.
        A dynamic policy's order is handed back to :meth:`sort` each pass,
        which re-sorts only once some pair of keys has crossed.
        """
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class FCFSPriority(PriorityPolicy):
    """First-come first-served: order by submission time."""

    name: str = "FCFS"

    def key(self, job: Job, now: float) -> tuple:
        return (job.submit_time, job.job_id)


@dataclass(frozen=True, repr=False)
class SJFPriority(PriorityPolicy):
    """Shortest job first, by user estimate."""

    name: str = "SJF"

    def key(self, job: Job, now: float) -> tuple:
        return (job.estimate, job.submit_time, job.job_id)


@dataclass(frozen=True, repr=False)
class LJFPriority(PriorityPolicy):
    """Longest job first, by user estimate (ablation baseline)."""

    name: str = "LJF"

    def key(self, job: Job, now: float) -> tuple:
        return (-job.estimate, job.submit_time, job.job_id)


@dataclass(frozen=True, repr=False)
class XFactorPriority(PriorityPolicy):
    """Largest expansion factor first (paper's XFactor policy)."""

    name: str = "XF"

    def key(self, job: Job, now: float) -> tuple:
        return (-xfactor(job, now), job.submit_time, job.job_id)

    def keys(self, jobs: Sequence[Job], now: float) -> list[tuple]:
        # xfactor() inlined, max(wait, 0.0) spelled the way max() decides
        # it (``0.0 > wait``): bit-identical keys without two calls per job.
        return [(-(((0.0 if (w := now - j.submit_time) < 0.0 else w) + j.estimate)
                   / j.estimate), j.submit_time, j.job_id) for j in jobs]

    @property
    def is_dynamic(self) -> bool:
        return True


@dataclass(frozen=True, repr=False)
class SmallestFirstPriority(PriorityPolicy):
    """Narrowest job first (ablation: helps backfilling density)."""

    name: str = "SF"

    def key(self, job: Job, now: float) -> tuple:
        return (job.procs, job.submit_time, job.job_id)


#: Registry of the policies used throughout the experiments.
PRIORITY_POLICIES: dict[str, PriorityPolicy] = {
    "FCFS": FCFSPriority(),
    "SJF": SJFPriority(),
    "LJF": LJFPriority(),
    "XF": XFactorPriority(),
    "SF": SmallestFirstPriority(),
}


def policy_by_name(name: str) -> PriorityPolicy:
    """Look up a policy by its short name (case insensitive)."""
    try:
        return PRIORITY_POLICIES[name.upper()]
    except KeyError:
        known = ", ".join(sorted(PRIORITY_POLICIES))
        raise ConfigurationError(f"unknown priority policy {name!r}; known: {known}")
