"""Selective-suspension scheduling policy (paper reference [6]).

The policy is EASY backfilling (one reservation for the blocked queue
head, shadow-safe and extra-processor backfills) *plus* the selective
suspension rule of Kettimuthu et al.: when even the reservation cannot
help the head — it has waited at least ``min_wait`` and its expansion
factor dwarfs that of some running jobs —

    ``xfactor(head) >= suspension_factor x xfactor(victim)``

the least-needy such victims are suspended until the head fits.  Suspended
jobs re-enter the waiting pool and resume through the same queue (their
expansion factors keep growing, so they cannot be starved indefinitely by
the same rule that suspended them — a job can only be preempted by one
with at least ``suspension_factor`` times its expansion factor, and that
relation is antisymmetric).

A :class:`RunningView` is fixed from a (re)start to the next suspension;
``decide`` derives each pseudo-release and suspendability from it and
``now``.  Phase 3 filters before it sorts: eligibility is monotone in the
victim's expansion factor (IEEE multiplication by the positive factor is
monotone), so the eligible victims are a prefix of the xfactor order, and a
stable sort of them alone picks the same victims in the same order.

Simplifications relative to the full ICPP 2002 system (documented in
DESIGN.md): a single suspension decision per event (the blocked head
only), and no checkpoint/migration costs (suspension is instantaneous, as
in the paper's "suspension in place" variant).
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ConfigurationError, SchedulingError
from repro.sched.priority.policies import FCFSPriority, PriorityPolicy, xfactor
from repro.sched.tol import EPS_SNAP as _EPS
from repro.workload.job import Job

__all__ = ["RunningView", "SuspendDecision", "SelectiveSuspensionScheduler"]


class RunningView(NamedTuple):
    """What the policy may know about one running job, fixed until it stops."""

    job: Job
    started: float  # the instant of this start or resume
    executed_before: float  # wall-clock work of the job's earlier runs


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
        running: Collection[RunningView],
        free_procs: int,
    ) -> SuspendDecision:
        decision = SuspendDecision()
        queue = self.priority.sort(waiting, now)
        free = free_procs
        # Estimated finishes; an overrun estimate leaves ``_EPS`` of work.
        pseudo_releases = []
        for job, started, executed_before in running:
            left = job.estimate - (executed_before + (now - started))
            finish = now + (left if left >= _EPS else _EPS)
            pseudo_releases.append((finish if finish >= now else now, job.procs))

        # Phase 1: start in priority order while the head fits.
        index = 0
        while index < len(queue) and queue[index].procs <= free:
            job = queue[index]
            index += 1
            decision.starts.append(job)
            free -= job.procs
            pseudo_releases.append((now + job.estimate, job.procs))
        if index == len(queue):
            return decision

        # Phase 2: EASY backfilling behind the blocked head.
        head = queue[index]
        shadow, extra = self._shadow(head, now, free, pseudo_releases)
        for job in queue[index + 1:]:
            if job.procs > free:
                continue
            by_shadow = now + job.estimate <= shadow + _EPS
            if by_shadow or job.procs <= extra:
                decision.starts.append(job)
                free -= job.procs
                if not by_shadow:
                    extra -= job.procs

        # Phase 3: selective suspension for the (still blocked) head.  A job
        # started at this very instant is not suspendable: it would thrash.
        if now - head.submit_time < self.min_wait:
            return decision
        head_xf = xfactor(head, now)
        eligible = []
        reachable = free
        for job, started, _ in running:
            if started < now:
                xf = xfactor(job, now)
                if head_xf >= self.suspension_factor * xf:
                    eligible.append((xf, job))
                    reachable += job.procs
        if reachable < head.procs:
            return decision
        eligible.sort(key=lambda pair: pair[0])
        for _, victim in eligible:
            decision.suspends.append(victim)
            free += victim.procs
            if free >= head.procs:
                break
        decision.starts.append(head)
        return decision
