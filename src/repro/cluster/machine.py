"""The machine: a space-shared pool of identical processors.

The paper's systems (CTC and SDSC SP2s) are flat, space-shared machines —
a job needs ``procs`` processors for its whole lifetime and any set of free
processors is as good as any other (no topology constraints).  The machine
therefore only tracks *counts*, plus enough accounting to compute
utilization exactly: the integral of busy processors over time.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.metrics.defs import FINISH_REL_TOL, START_TOL
from repro.workload.job import Job

__all__ = ["Machine"]


class Machine:
    """A pool of ``total_procs`` identical processors.

    Allocation is strictly checked: double allocations, unknown releases,
    and oversubscription raise :class:`~repro.errors.AllocationError`
    immediately instead of silently corrupting the simulation.
    """

    __slots__ = ("total_procs", "_free", "_allocations", "_busy_area", "_last_time")

    def __init__(self, total_procs: int) -> None:
        if total_procs <= 0:
            raise AllocationError(f"machine needs > 0 processors, got {total_procs}")
        self.total_procs = total_procs
        self._free = total_procs
        self._allocations: dict[int, int] = {}
        self._busy_area = 0.0
        self._last_time = 0.0

    # -- queries --------------------------------------------------------------

    @property
    def free_procs(self) -> int:
        """Number of currently idle processors."""
        return self._free

    @property
    def busy_procs(self) -> int:
        """Number of currently allocated processors."""
        return self.total_procs - self._free

    @property
    def running_job_ids(self) -> frozenset[int]:
        """Ids of jobs currently holding processors."""
        return frozenset(self._allocations)

    def fits(self, job: Job) -> bool:
        """True if ``job`` could start right now."""
        return job.procs <= self._free

    def allocation_of(self, job_id: int) -> int:
        """Processors currently held by ``job_id`` (0 if not running)."""
        return self._allocations.get(job_id, 0)

    # -- state changes ----------------------------------------------------------

    # The busy-area integral advance is inlined into allocate()/release()
    # rather than shared through a helper: the pair sits on the simulator's
    # per-event path (every start and every finish), and the extra method
    # call plus two property reads showed up in the hot-loop profile.

    def allocate(self, job: Job, time: float) -> None:
        """Give ``job.procs`` processors to ``job`` at virtual ``time``."""
        allocations = self._allocations
        job_id = job.job_id
        if job_id in allocations:
            raise AllocationError(f"job {job_id} is already running")
        procs = job.procs
        free = self._free
        if procs > free:
            raise AllocationError(
                f"job {job_id} needs {procs} procs but only "
                f"{free}/{self.total_procs} are free at t={time}"
            )
        last = self._last_time
        if time > last:
            self._busy_area += (self.total_procs - free) * (time - last)
            self._last_time = time
        elif time < last - START_TOL:
            raise AllocationError(f"machine time moved backwards: {last} -> {time}")
        self._free = free - procs
        allocations[job_id] = procs

    def release(self, job: Job, time: float) -> None:
        """Return ``job``'s processors to the pool at virtual ``time``."""
        held = self._allocations.pop(job.job_id, None)
        if held is None:
            raise AllocationError(f"job {job.job_id} is not running; cannot release")
        free = self._free
        last = self._last_time
        if time > last:
            self._busy_area += (self.total_procs - free) * (time - last)
            self._last_time = time
        elif time < last - START_TOL:
            raise AllocationError(f"machine time moved backwards: {last} -> {time}")
        free += held
        if free > self.total_procs:
            raise AllocationError(
                f"release of job {job.job_id} overflowed the pool "
                f"({free} > {self.total_procs})"
            )
        self._free = free

    def clone(self) -> "Machine":
        """Independent copy of the full machine state (for snapshots).

        The copy carries the allocation table *and* the utilization
        integral, so a simulation resumed from it reports the identical
        utilization a monolithic run would.
        """
        dup = Machine.__new__(Machine)
        dup.total_procs = self.total_procs
        dup._free = self._free
        dup._allocations = dict(self._allocations)
        dup._busy_area = self._busy_area
        dup._last_time = self._last_time
        return dup

    # -- accounting ---------------------------------------------------------------

    def utilization(self, until: float | None = None) -> float:
        """Mean fraction of processors busy over [0, until].

        ``until`` defaults to the last observed event time.  Returns 0 for a
        zero-length horizon.
        """
        horizon = self._last_time if until is None else until
        if horizon <= 0:
            return 0.0
        area = self._busy_area
        if until is not None and until > self._last_time:
            area += self.busy_procs * (until - self._last_time)
        elif until is not None and until < self._last_time:
            raise AllocationError(
                f"utilization horizon {until} precedes machine time {self._last_time}"
            )
        value = area / (self.total_procs * horizon)
        if value > 1.0 + FINISH_REL_TOL:
            raise AllocationError(f"computed utilization {value} > 1 — accounting bug")
        return min(value, 1.0)

    def checkpoint_busy_area(self) -> float:
        """Busy processor-seconds accumulated so far (for tests)."""
        return self._busy_area

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(total={self.total_procs}, free={self._free}, "
            f"running={len(self._allocations)})"
        )
