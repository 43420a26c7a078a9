"""Advance reservations: capacity blocked at a fixed future time.

Production schedulers accept *advance reservations* — "P processors from
T1 to T2" — for maintenance windows, co-allocated grid jobs, or deadline
runs (Snell et al., "The performance impact of advance reservation
meta-scheduling", in this paper's related-work orbit).  An AR is a hard
rectangle in the 2D chart that batch jobs must be packed around.

Only a discipline with an availability profile can pack around one, so
ARs belong to the planning core (:class:`repro.sched.plan.PlanningScheduler`,
behind conservative, selective and depth): it carves every window into its
plan (:func:`carve_reservations`) and holds it on its machine
(:class:`HeldWindows`).  The simulator sees only the wake-ups asked for at
each window's edges.  EASY and no-backfill have no ``advance_reservations``.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sched.profile import Profile

__all__ = ["AdvanceReservation", "carve_reservations", "validate_reservation_set"]


@dataclass(frozen=True)
class AdvanceReservation:
    """A hard capacity block: ``procs`` processors over [start, start+duration)."""

    procs: int
    start: float
    duration: float
    label: str = "AR"

    def __post_init__(self) -> None:
        if self.procs <= 0:
            raise ConfigurationError(f"AR needs procs > 0, got {self.procs}")
        if not math.isfinite(self.start) or self.start < 0:
            raise ConfigurationError(
                f"AR start must be finite and >= 0, got {self.start}"
            )
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ConfigurationError(
                f"AR duration must be finite and > 0, got {self.duration}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


def validate_reservation_set(
    reservations: tuple[AdvanceReservation, ...] | list[AdvanceReservation],
    total_procs: int,
) -> None:
    """Reject AR sets that jointly oversubscribe the machine.

    Overlapping windows are legal as long as their combined width fits;
    a set that exceeds ``total_procs`` at any instant could never be
    honoured and would otherwise surface as an allocation failure deep
    inside a simulation run.
    """
    events: list[tuple[float, int]] = []
    for ar in reservations:
        if ar.procs > total_procs:
            raise ConfigurationError(
                f"advance reservation {ar.label!r} needs {ar.procs} procs on a "
                f"{total_procs}-proc machine"
            )
        events.append((ar.start, ar.procs))
        events.append((ar.end, -ar.procs))
    events.sort()
    busy = 0
    for time, delta in events:
        busy += delta
        if busy > total_procs:
            raise ConfigurationError(
                f"advance reservations jointly need {busy} procs at t={time} "
                f"on a {total_procs}-proc machine"
            )


def carve_reservations(
    profile: Profile,
    reservations: tuple[AdvanceReservation, ...] | list[AdvanceReservation],
    now: float,
) -> None:
    """Subtract every AR's remaining window from an availability profile.

    Windows entirely in the past are skipped; windows already underway are
    carved from ``now`` to their end (:class:`HeldWindows` holds the
    machine-side processors for that same remainder).
    """
    for ar in reservations:
        if ar.end <= now:
            continue
        start = max(ar.start, now)
        profile.reserve(ar.procs, start, ar.end - start)


#: The machine keys allocations by ``job_id``; a window's is ``("AR", index)``.
_Hold = namedtuple("_Hold", "job_id procs")


class HeldWindows:
    """The machine side of one planning scheduler's advance reservations.

    Made when the scheduler binds, it validates the windows, asks the
    simulator for a wake-up at each window's start and end, and holds each
    window's processors in between.  Within one instant a window opens
    after the completions and the discipline's timer pass, before the
    arrivals.  It closes before the first scheduling decision, and the
    pass that refills it runs ahead of the timer pass and of the finish
    pass of every job started after it opened (:meth:`passes_before`).
    Wake-ups are one per instant, so an edge's wake-up runs the timer
    pass only if the discipline asked for the instant before it began; a
    request made during the instant wakes it again afterwards.
    """

    def __init__(self, reservations, machine, request_wakeup) -> None:
        validate_reservation_set(reservations, machine.total_procs)
        self._windows = tuple(reservations)
        self._now = 0.0  # instant of the last finish or wake-up
        self._edges = {t for ar in self._windows for t in (ar.start, ar.end)}
        self._asked: set[float] = set()  # edges the discipline asked for
        self._again: set[float] = set()  # ... asked for during their instant
        #: Open window index -> ids of the jobs started before it opened;
        #: those sets for the windows closed at ``_now`` and not refilled.
        self._open: dict[int, frozenset] = {}
        self._closed: list[frozenset] = []
        for edge in sorted(self._edges):
            request_wakeup(edge)

    def fork(self) -> "HeldWindows":
        clone = copy.copy(self)
        clone._edges, clone._asked = set(self._edges), set(self._asked)
        clone._again, clone._open = set(self._again), dict(self._open)
        clone._closed = list(self._closed)
        return clone

    def request(self, time: float, request_wakeup) -> None:
        """The discipline asks for a wake-up at ``time``."""
        now = self._now
        when = max(time, now)  # the simulator's own clamp
        if when not in self._edges:
            request_wakeup(time)
        elif when > now:
            self._asked.add(when)
        elif now not in self._asked:
            self._again.add(now)

    def _close(self, now: float, machine) -> None:
        self._now = now
        for index in [i for i in self._open if self._windows[i].end <= now]:
            machine.release(_Hold(("AR", index), 0), now)
            self._closed.append(self._open.pop(index))

    def passes_before(self, job_id: int, now: float, machine) -> int:
        """Refilling passes due before job ``job_id``'s finish pass."""
        self._close(now, machine)
        closed = self._closed
        count = next((i for i, ids in enumerate(closed) if job_id in ids), len(closed))
        del closed[:count]
        return count

    def wake(self, now: float, machine) -> tuple[int, bool]:
        """``(refilling passes due, whether the timer pass runs)``."""
        self._close(now, machine)
        passes, self._closed = len(self._closed), []
        asked = now in self._asked or now not in self._edges
        self._edges.discard(now)
        self._asked.discard(now)
        return passes, asked

    def open(self, now: float, machine, request_wakeup, running, started) -> None:
        """After :meth:`wake`'s passes, hold the windows starting at ``now``."""
        opening = [i for i, ar in enumerate(self._windows) if ar.start == now]
        if opening:
            before = frozenset(running).union(job.job_id for job in started)
            for index in opening:
                machine.allocate(_Hold(("AR", index), self._windows[index].procs), now)
                self._open[index] = before
        if now in self._again:
            self._again.discard(now)
            request_wakeup(now)
