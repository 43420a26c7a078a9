"""Reservation-depth backfilling: the EASY ↔ conservative continuum.

The paper frames conservative and EASY as opposite poles: reservations
for *everybody* vs for the *head only*.  Production schedulers (Maui's
``RESERVATIONDEPTH``) expose the spectrum in between: the first K jobs of
the priority queue hold reservations, everyone else backfills around
them.

* ``depth = 1`` behaves like EASY (single reservation; the backfill
  admission test is the availability profile rather than EASY's
  shadow/extra pair, so schedules can differ in edge cases — the profile
  also sees the hole *after* the head's estimated completion);
* ``depth >= queue length`` is exactly selective backfilling at threshold
  1.0, i.e. conservative repack (verified by tests).

The scheduling pass is the reservation family's shared one
(:class:`~repro.sched.plan.PartialReservationScheduler`); this module
adds only the membership rule.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sched.plan import PartialReservationScheduler
from repro.workload.job import Job

__all__ = ["DepthScheduler"]


class DepthScheduler(PartialReservationScheduler):
    """Reservations for the first ``depth`` queued jobs (see module docs)."""

    name = "DEPTH"

    def __init__(self, priority=None, *, depth: int = 1, advance_reservations=()) -> None:
        super().__init__(priority, advance_reservations=advance_reservations)
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.depth = depth

    def describe(self) -> str:
        return f"{self.name}({self.priority.name}, k={self.depth})"

    def _reserved(self, queue: list[Job], now: float) -> list[Job]:
        return queue[: self.depth]
