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

Simplifications relative to the full ICPP 2002 system (documented in
DESIGN.md): a single suspension decision per event (the blocked head
only), and no checkpoint/migration costs (suspension is instantaneous, as
in the paper's "suspension in place" variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SchedulingError
from repro.sched.priority.policies import FCFSPriority, PriorityPolicy, xfactor
from repro.sched.tol import EPS_SNAP as _EPS
from repro.workload.job import Job

__all__ = ["RunningView", "SuspendDecision", "SelectiveSuspensionScheduler"]


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
