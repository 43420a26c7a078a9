"""Scheduler base class: the contract between schedulers and the simulator.

A scheduler owns the idle queue.  The simulator calls :meth:`on_arrival`
when a job is submitted and :meth:`on_finish` when a running job releases
its processors; both return the (ordered) list of jobs to start *right now*.
The simulator performs the actual allocation, so schedulers make decisions
against a read-only view of the machine and their own bookkeeping.

Schedulers never see a job's actual runtime — all planning uses
``job.estimate`` — which is exactly the information asymmetry the paper
studies.

Queue-order maintenance (kernel fast path): policies whose sort keys never
change as time passes (``PriorityPolicy.is_dynamic`` is False — FCFS, SJF,
LJF, narrowest-first) get an *incrementally sorted* queue: arrivals are
placed by binary insertion and :meth:`Scheduler._ordered_queue` is a copy,
not a sort.  Time-varying policies (XFactor, a composite with a wait or
XFactor term) keep the queue in arrival order and the previous pass's
order beside it, which :meth:`PriorityPolicy.sort` checks and re-sorts
only once two keys have crossed.  Keys always end in
``(submit_time, job_id)``, so a strictly increasing order *is* the sorted
order and every path produces the identical total order.  Jobs leave the
queue by identity, never by ``==``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right

from repro.cluster.machine import Machine
from repro.errors import SchedulingError
from repro.sched.priority.policies import FCFSPriority, PriorityPolicy
from repro.sched.profile import Profile
from repro.workload.job import Job

__all__ = ["Scheduler"]


def _remove_identical(jobs: list[Job], job: Job) -> bool:
    """Delete ``job`` itself from ``jobs``; False if it is not there."""
    for index, queued in enumerate(jobs):
        if queued is job:
            del jobs[index]
            return True
    return False


class Scheduler(ABC):
    """Base class for all scheduling disciplines.

    Subclasses implement :meth:`on_arrival` and :meth:`on_finish`.  The base
    class provides queue storage, binding to a machine, and bookkeeping that
    the simulator's invariant checks rely on.
    """

    #: Short name for reports ("FCFS-nobf", "conservative", "EASY", ...).
    name: str = "scheduler"

    #: Profile implementation used by reservation-planning subclasses.
    #: The one substitution seam: the property suites point instances at
    #: the frozen reference kernel in ``tests/oracles/profile_ref.py``.
    profile_factory: type[Profile] = Profile

    def __init__(self, priority: PriorityPolicy | None = None) -> None:
        self.priority: PriorityPolicy = priority or FCFSPriority()
        self.machine: Machine | None = None
        self._queue: list[Job] = []
        #: Sort key of each queued job, parallel to ``_queue`` when the
        #: queue is incrementally sorted (empty otherwise).  Keys are
        #: computed once at enqueue, so placement and removal are pure
        #: bisects instead of per-comparison ``priority.key`` calls.
        self._queue_keys: list[tuple] = []
        self._queue_is_sorted = False  # set at bind(); see module docstring
        #: Dynamic policies only: ``_queue``'s jobs in the previous pass's
        #: priority order, a hint that ``priority.sort`` checks.
        self._order: list[Job] = []
        self._running: dict[int, tuple[Job, float]] = {}  # id -> (job, start)
        self._request_wakeup = None  # set by bind(); Callable[[float], None]

    # -- lifecycle ------------------------------------------------------------

    def bind(self, machine: Machine, request_wakeup=None) -> None:
        """Attach the scheduler to a machine before simulation starts.

        ``request_wakeup(time)``, when provided by the simulator, schedules
        a TIMER event so the scheduler is re-invoked (via :meth:`on_wakeup`)
        at ``time`` even if no arrival or completion falls on it.  Schedulers
        whose decisions only ever take effect at job events can ignore it.
        """
        self.machine = machine
        self._request_wakeup = request_wakeup
        self._queue.clear()
        self._queue_keys.clear()
        self._order.clear()
        self._queue_is_sorted = not self.priority.is_dynamic
        self._running.clear()
        self.reset()

    def reset(self) -> None:
        """Hook for subclasses to clear their own state on bind()."""

    def rebind(self, machine: Machine, request_wakeup=None) -> None:
        """Attach to a machine *without* clearing state.

        Used when resuming a simulation from a snapshot: the scheduler
        copy produced by :meth:`fork` already carries the mid-run queue
        and planning state, and :meth:`bind`'s reset would destroy it.
        """
        self.machine = machine
        self._request_wakeup = request_wakeup
        self._queue_is_sorted = not self.priority.is_dynamic

    def fork(self) -> "Scheduler":
        """Independent copy of the full mid-run scheduler state.

        The copy is detached (no machine, no wakeup callback) until
        :meth:`rebind` attaches it; the original keeps running
        unaffected.  The base class copies the shared bookkeeping — the
        idle queue and the running table — and shares the stateless
        priority policy, then hands the copy to :meth:`_fork_into` for
        the subclass's own state.  Every concrete discipline must implement
        :meth:`_fork_into` (``pass`` when there is nothing beyond the
        base state) so that new state added later fails loudly instead
        of being silently shared.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.machine = None
        clone._request_wakeup = None
        clone._queue = list(self._queue)
        clone._queue_keys = list(self._queue_keys)
        clone._order = list(self._order)
        clone._running = dict(self._running)
        self._fork_into(clone)
        return clone

    def _fork_into(self, clone: "Scheduler") -> None:
        """Copy subclass-owned mutable state onto ``clone``.

        ``clone`` starts as a shallow copy of ``self`` (plus deep-copied
        base bookkeeping); implementations must replace every mutable
        container and planning structure they own.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _fork_into(); "
            "checkpoint/fork needs every discipline to copy its own state"
        )

    def request_wakeup(self, time: float) -> None:
        """Ask the simulator for a TIMER event at ``time`` (no-op unbound)."""
        if self._request_wakeup is not None:
            self._request_wakeup(time)

    def on_wakeup(self, now: float) -> list[Job]:
        """Handle a requested TIMER event; return jobs to start now."""
        return []

    def cancel(self, job: Job, now: float) -> None:
        """Withdraw a *queued* job.  Withdraw-only — NO scheduling pass.

        Used by the grid metascheduler, which submits a job to several
        sites and cancels the losers once one site starts it.  Subclasses holding
        per-job planning state (reservations, deadlines) must override and
        clean it up.  Deliberately side-effect-free beyond state cleanup:
        the caller invokes :meth:`poke` once all simultaneous withdrawals
        are done, so a cancellation cascade can never start a job whose
        replica was already committed elsewhere.
        """
        self._dequeue(job)

    def poke(self, now: float) -> list[Job]:
        """Run a scheduling pass outside the normal event hooks.

        The grid metascheduler calls this after a batch of :meth:`cancel`
        withdrawals; a freed slot may let queued jobs start.  The base
        implementation starts nothing.
        """
        return []

    # -- simulator-facing API ---------------------------------------------------

    @abstractmethod
    def on_arrival(self, job: Job, now: float) -> list[Job]:
        """Handle a submission; return jobs to start now (ordered)."""

    @abstractmethod
    def on_finish(self, job: Job, now: float) -> list[Job]:
        """Handle a completion; return jobs to start now (ordered)."""

    def notify_started(self, job: Job, now: float) -> None:
        """Called by the simulator after it allocates a job this scheduler
        returned.  Subclasses needing extra bookkeeping must call super()."""
        self._running[job.job_id] = (job, now)

    def notify_finished(self, job: Job, now: float) -> None:
        """Called by the simulator after it releases a finished job."""
        if self._running.pop(job.job_id, None) is None:
            raise SchedulingError(
                f"{self.name}: finish notification for job {job.job_id} "
                "which is not running"
            )

    # -- shared queue helpers ---------------------------------------------------

    @property
    def queued_jobs(self) -> tuple[Job, ...]:
        """Snapshot of the idle queue (unspecified order)."""
        return tuple(self._queue)

    @property
    def running_jobs(self) -> tuple[tuple[Job, float], ...]:
        """Snapshot of running jobs as (job, start_time) pairs."""
        return tuple(self._running.values())

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def _enqueue(self, job: Job) -> None:
        if self._queue_is_sorted:
            # Static keys ignore ``now``; 0.0 is an arbitrary stand-in.
            key = self.priority.key(job, 0.0)
            keys = self._queue_keys
            if not keys or key >= keys[-1]:
                # Dominant case: keys end in (submit_time, job_id) and
                # arrivals are delivered in submit order, so FCFS-like
                # policies always append — O(1) instead of a bisect plus
                # a mid-list insert's memmove.
                keys.append(key)
                self._queue.append(job)
            else:
                index = bisect_right(keys, key)
                keys.insert(index, key)
                self._queue.insert(index, job)
        else:
            self._queue.append(job)
            self._order.append(job)

    def _dequeue(self, job: Job) -> None:
        if self._queue_is_sorted:
            # Keys end in (submit_time, job_id), so each job's key is
            # unique and a bisect lands exactly on it if present.
            keys = self._queue_keys
            index = bisect_left(keys, self.priority.key(job, 0.0))
            if index < len(keys) and self._queue[index] is job:
                del keys[index]
                del self._queue[index]
                return
        elif _remove_identical(self._queue, job):
            _remove_identical(self._order, job)
            return
        raise SchedulingError(f"{self.name}: job {job.job_id} is not in the idle queue")

    def _pop_queue_prefix(self, count: int) -> list[Job]:
        """Remove and return the first ``count`` jobs of the sorted queue.

        Fast path for disciplines that consume the queue head-first (a
        single slice-delete instead of ``count`` individual removals).
        Only meaningful while ``_queue_is_sorted`` holds.
        """
        queue = self._queue
        taken = queue[:count]
        del queue[:count]
        del self._queue_keys[:count]
        return taken

    def _ordered_queue(self, now: float) -> list[Job]:
        """The idle queue in priority order at time ``now``."""
        if self._queue_is_sorted:
            return list(self._queue)
        # The previous order is usually still sorted; the policy checks it.
        self._order = order = self.priority.sort(self._order, now)
        return list(order)

    def _machine(self) -> Machine:
        if self.machine is None:
            raise SchedulingError(f"{self.name}: scheduler is not bound to a machine")
        return self.machine

    def _machine_fits(self, job: Job, committed_procs: int = 0) -> bool:
        """True if the machine *physically* has processors for ``job`` now.

        Planning profiles are built from estimated finishes and merge
        breakpoints within a float tolerance, so a plan can declare a job
        due an instant before the releasing completion has actually been
        processed.  Profile-based schedulers must re-check the machine (less
        ``committed_procs`` already promised to other starts in the same
        pass) before returning a job to the simulator; a deferred job is
        reconsidered at the very next finish event, so the delay is bounded
        by the tolerance itself.
        """
        return self._machine().free_procs - committed_procs >= job.procs

    def estimated_finish(self, job_id: int) -> float:
        """Estimated completion time of a running job (start + estimate)."""
        try:
            job, start = self._running[job_id]
        except KeyError:
            raise SchedulingError(f"job {job_id} is not running") from None
        return start + job.estimate

    def describe(self) -> str:
        """Human-readable identity, e.g. ``EASY(SJF)``."""
        return f"{self.name}({self.priority.name})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.describe()} queue={len(self._queue)} "
            f"running={len(self._running)}>"
        )
