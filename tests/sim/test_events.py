"""Unit tests for events and the event queue."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, EventKind, EventQueue

from tests.conftest import make_job


class TestEvent:
    def test_finish_before_timer_before_arrival_ordering(self):
        assert EventKind.JOB_FINISH < EventKind.TIMER < EventKind.JOB_ARRIVAL

    def test_infinite_time_rejected(self):
        with pytest.raises(SimulationError, match="finite"):
            Event(math.inf, EventKind.JOB_ARRIVAL, make_job(1))

    def test_job_events_require_job(self):
        with pytest.raises(SimulationError, match="require a job"):
            Event(0.0, EventKind.JOB_ARRIVAL, None)

    def test_timer_needs_no_job(self):
        event = Event(5.0, EventKind.TIMER, None)
        assert event.job is None


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.JOB_ARRIVAL, make_job(1)))
        q.push(Event(5.0, EventKind.JOB_ARRIVAL, make_job(2)))
        assert [e.job.job_id for e in q.pop_batch(q.next_time)] == [2]
        assert [e.job.job_id for e in q.pop_batch(q.next_time)] == [1]
        assert not q

    def test_finish_processed_before_arrival_at_same_time(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.JOB_ARRIVAL, make_job(1)))
        q.push(Event(10.0, EventKind.JOB_FINISH, make_job(2)))
        assert q.pop_batch(10.0)[0].kind is EventKind.JOB_FINISH

    def test_timer_between_finish_and_arrival(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.JOB_ARRIVAL, make_job(1)))
        q.push(Event(10.0, EventKind.TIMER, None))
        q.push(Event(10.0, EventKind.JOB_FINISH, make_job(2)))
        kinds = [e.kind for e in q.pop_batch(10.0)]
        assert kinds == [EventKind.JOB_FINISH, EventKind.TIMER, EventKind.JOB_ARRIVAL]

    def test_insertion_order_stable_within_kind(self):
        q = EventQueue()
        for job_id in (3, 1, 2):
            q.push(Event(7.0, EventKind.JOB_ARRIVAL, make_job(job_id)))
        assert [e.job.job_id for e in q.pop_batch(7.0)] == [3, 1, 2]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(Event(1.0, EventKind.TIMER, None))
        assert q and len(q) == 1

    def test_next_time(self):
        q = EventQueue()
        assert q.next_time == math.inf
        q.push(Event(42.0, EventKind.TIMER, None))
        assert q.next_time == 42.0

    def test_push_finish_returns_the_queued_event(self):
        q = EventQueue()
        job = make_job(1)
        event = q.push_finish(3.0, job)
        assert (event.time, event.kind, event.job) == (3.0, EventKind.JOB_FINISH, job)
        assert q.pop_batch(3.0) == [event]
