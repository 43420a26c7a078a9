"""Events and the event queue.

The simulation is driven by three event kinds:

* ``JOB_FINISH`` — a running job releases its processors;
* ``TIMER`` — a scheduler-requested wakeup (e.g. a reservation coming due
  at a time no arrival or completion happens to coincide with);
* ``JOB_ARRIVAL`` — a job enters the wait queue.

Tie-breaking at equal timestamps is load-bearing for correctness and
reproducibility: finishes are processed first (so a reservation anchored at
a completion sees the freed processors), then timers, then arrivals; events
of the same kind preserve insertion order via a monotone sequence number.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import IntEnum

from repro.errors import SimulationError
from repro.workload.job import Job

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(IntEnum):
    """Event kinds, ordered by processing priority at equal timestamps."""

    JOB_FINISH = 0
    TIMER = 1
    JOB_ARRIVAL = 2


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence in virtual time.

    ``job`` is None for TIMER events and required for the job events.
    """

    time: float
    kind: EventKind
    job: Job | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise SimulationError(f"event time must be finite, got {self.time}")
        if self.kind is not EventKind.TIMER and self.job is None:
            raise SimulationError(f"{self.kind.name} events require a job")

    def sort_key(self, seq: int) -> tuple[float, int, int]:
        return (self.time, int(self.kind), seq)


class EventQueue:
    """A stable min-heap of events ordered by (time, kind, insertion)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        # Plain integer rather than itertools.count so the counter can be
        # captured and restored by clone() — a resumed simulation must hand
        # out the exact sequence numbers the monolithic run would have, or
        # same-timestamp tie-breaking diverges.
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Insert an event; inserting into the past is a simulation bug."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (event.sort_key(seq), event))

    def push_finish(
        self,
        time: float,
        job: Job,
        _new=object.__new__,
        _set=object.__setattr__,
        _cls=Event,
        _kind=EventKind.JOB_FINISH,
        _kind_int=int(EventKind.JOB_FINISH),
        _heappush=heapq.heappush,
    ) -> Event:
        """Build, insert and return a trusted JOB_FINISH event in one call.

        Engine-internal fast path for the started-job loop: one call per
        start instead of three (construct, ``sort_key``, :meth:`push`),
        and the ``__post_init__`` finiteness check is skipped because the
        engine computes finish times as ``clock + effective_runtime``,
        both finite by construction (the clock only ever takes values
        from validated submit times and previously pushed finite events).
        Scheduler-supplied times (timer wakeups) still go through the
        validated ``Event`` constructor and :meth:`push`.  The returned
        event lets an engine that can invalidate a finish (preemption)
        recognise its live one by identity.
        """
        event = _new(_cls)
        _set(event, "time", time)
        _set(event, "kind", _kind)
        _set(event, "job", job)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, ((time, _kind_int, seq), event))
        return event

    def pop_batch(self, time: float) -> list[Event]:
        """Remove and return every event scheduled at exactly ``time``.

        The returned list is in (kind, insertion) order.  One direct peek
        at the heap root per event replaces a ``next_time`` property
        re-read per event (the engine's drain loop is the hottest loop of
        a simulation).
        """
        heap = self._heap
        batch: list[Event] = []
        while heap and heap[0][0][0] == time:
            batch.append(heapq.heappop(heap)[1])
        return batch

    def clone(self) -> "EventQueue":
        """Independent copy (for simulation snapshots).

        Shallow-copies the heap — entries are immutable ``(key, Event)``
        tuples — and carries the sequence counter over, so events pushed
        after the clone order identically in both queues.
        """
        dup = EventQueue()
        dup._heap = list(self._heap)
        dup._seq = self._seq
        return dup

    @property
    def next_time(self) -> float:
        """Timestamp of the earliest pending event (inf when empty)."""
        return self._heap[0][1].time if self._heap else math.inf
