"""Engine checkpoint/fork API: run_until / snapshot / resume / drain.

The byte-identical-schedule guarantees live in
``tests/properties/test_prop_chain_equivalence.py``; this file covers the
API surface itself — lifecycle guards, snapshot independence, resume
validation — plus the event-queue batch pop and the makespan accounting
fix that rode along with the refactor.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import cached_workload, make_scheduler
from repro.sim.engine import Simulator, simulate
from repro.sim.events import Event, EventKind, EventQueue
from repro.workload.job import Job, Workload


def _workloads(n_short=120, n_full=200, seed=2):
    full = cached_workload(WorkloadSpec("CTC", n_full, seed, 1.0, "user"))
    short = cached_workload(WorkloadSpec("CTC", n_short, seed, 1.0, "user"))
    return short, full


class TestRunUntilDrain:
    def test_run_until_then_drain_equals_run(self):
        _, full = _workloads()
        want = simulate(full, make_scheduler("easy", "SJF"))
        sim = Simulator(full, make_scheduler("easy", "SJF"))
        sim.run_until(60)
        sim.run_until(140)
        got = sim.drain()
        assert got.metrics == want.metrics
        assert got.start_times() == want.start_times()
        assert got.events_processed == want.events_processed

    def test_repeated_same_horizon_is_idempotent(self):
        _, full = _workloads()
        sim = Simulator(full, make_scheduler("cons", "FCFS"))
        sim.run_until(100)
        before = sim.clock
        sim.run_until(100)
        assert sim.clock == before

    def test_run_until_rejects_out_of_range_horizons(self):
        _, full = _workloads()
        sim = Simulator(full, make_scheduler("nobf", "FCFS"))
        for bad in (0, -3, len(full), len(full) + 7):
            with pytest.raises(SimulationError, match="run_until"):
                sim.run_until(bad)

    def test_run_until_rejects_decreasing_horizon(self):
        _, full = _workloads()
        sim = Simulator(full, make_scheduler("nobf", "FCFS"))
        sim.run_until(150)
        with pytest.raises(SimulationError, match="non-decreasing"):
            sim.run_until(50)

    def test_lifecycle_guards(self):
        _, full = _workloads()
        sim = Simulator(full, make_scheduler("nobf", "FCFS"))
        with pytest.raises(SimulationError, match="drain"):
            sim.drain()  # not primed yet
        with pytest.raises(SimulationError, match="snapshot"):
            sim.snapshot()
        sim.run()
        with pytest.raises(SimulationError, match="only run once"):
            sim.run()
        with pytest.raises(SimulationError):
            sim.run_until(50)
        with pytest.raises(SimulationError):
            sim.drain()
        with pytest.raises(SimulationError):
            sim.snapshot()

    def test_run_until_after_plain_run_is_rejected_mid_instance(self):
        _, full = _workloads()
        sim = Simulator(full, make_scheduler("nobf", "FCFS"))
        sim.run_until(50)
        with pytest.raises(SimulationError, match="only run once"):
            sim.run()


class TestSnapshotResume:
    def test_one_snapshot_seeds_many_branches(self):
        short, full = _workloads()
        want_short = simulate(short, make_scheduler("easy", "FCFS"))
        trunk = Simulator(full, make_scheduler("easy", "FCFS"))
        trunk.run_until(len(short.jobs))
        snap = trunk.snapshot()
        results = [
            Simulator.resume(snap, short).drain() for _ in range(3)
        ]
        for got in results:
            assert got.metrics == want_short.metrics
            assert got.start_times() == want_short.start_times()

    def test_snapshot_does_not_disturb_the_trunk(self):
        short, full = _workloads()
        want_full = simulate(full, make_scheduler("sel", "XF"))
        trunk = Simulator(full, make_scheduler("sel", "XF"))
        trunk.run_until(len(short.jobs))
        snap = trunk.snapshot()
        Simulator.resume(snap, short).drain()
        got = trunk.drain()
        assert got.metrics == want_full.metrics
        assert got.start_times() == want_full.start_times()

    def test_resumed_branch_can_checkpoint_again(self):
        short, full = _workloads()
        want_short = simulate(short, make_scheduler("cons", "FCFS"))
        trunk = Simulator(full, make_scheduler("cons", "FCFS"))
        trunk.run_until(60)
        branch = Simulator.resume(trunk.snapshot(), short)
        branch.run_until(90)
        got = branch.drain()
        assert got.metrics == want_short.metrics

    def test_resume_rejects_wrong_machine_size(self):
        short, full = _workloads()
        trunk = Simulator(full, make_scheduler("nobf", "FCFS"))
        trunk.run_until(len(short.jobs))
        snap = trunk.snapshot()
        shrunk = Workload(
            name=short.name, jobs=short.jobs, max_procs=short.max_procs + 1
        )
        with pytest.raises(SimulationError, match="proc"):
            Simulator.resume(snap, shrunk)

    def test_resume_rejects_non_prefix_workload(self):
        short, full = _workloads()
        trunk = Simulator(full, make_scheduler("nobf", "FCFS"))
        trunk.run_until(len(short.jobs))
        snap = trunk.snapshot()
        # A workload whose arrival history below the watermark disagrees
        # with what the snapshot already simulated.
        few = Workload(
            name="few", jobs=short.jobs[:10], max_procs=short.max_procs
        )
        with pytest.raises(SimulationError, match="disagrees"):
            Simulator.resume(snap, few)

    def test_events_processed_carries_over(self):
        short, full = _workloads()
        want = simulate(short, make_scheduler("easy", "SJF"))
        trunk = Simulator(full, make_scheduler("easy", "SJF"))
        trunk.run_until(len(short.jobs))
        got = Simulator.resume(trunk.snapshot(), short).drain()
        assert got.events_processed == want.events_processed


class TestPopBatch:
    def test_pop_batch_matches_repeated_pop_order(self):
        job = Job(job_id=1, submit_time=0.0, runtime=5.0, estimate=5.0, procs=1)
        q1 = EventQueue()
        events = [
            Event(2.0, EventKind.JOB_ARRIVAL, job),
            Event(2.0, EventKind.TIMER, None),
            Event(2.0, EventKind.JOB_FINISH, job),
            Event(3.0, EventKind.TIMER, None),
            Event(2.0, EventKind.TIMER, None),
        ]
        for event in events:
            q1.push(event)
        batch = q1.pop_batch(2.0)
        # The heap's own order: kind first, then insertion.
        want = [events[2], events[1], events[4], events[0]]
        assert batch == want
        assert len(q1) == 1 and q1.next_time == 3.0

    def test_pop_batch_on_absent_time_is_empty(self):
        queue = EventQueue()
        queue.push(Event(5.0, EventKind.TIMER, None))
        assert queue.pop_batch(4.0) == []
        assert len(queue) == 1

    def test_clone_preserves_sequence_numbers(self):
        queue = EventQueue()
        queue.push(Event(1.0, EventKind.TIMER, None))
        dup = queue.clone()
        later = Event(1.0, EventKind.TIMER, None)
        queue.push(later)
        dup.push(later)
        assert queue.pop_batch(1.0) == dup.pop_batch(1.0)


class TestMakespan:
    def test_makespan_measured_from_first_submit(self):
        # First arrival well after t=0: makespan must span first submit ->
        # last completion, not 0 -> last completion.
        jobs = (
            Job(job_id=1, submit_time=100.0, runtime=50.0, estimate=50.0, procs=1),
            Job(job_id=2, submit_time=120.0, runtime=30.0, estimate=30.0, procs=1),
        )
        workload = Workload(name="delayed", jobs=jobs, max_procs=2)
        result = simulate(workload, make_scheduler("nobf", "FCFS"))
        assert result.metrics.makespan == pytest.approx(50.0)

    def test_makespan_spans_checkpointed_runs(self):
        short, full = _workloads()
        want = simulate(short, make_scheduler("cons", "FCFS"))
        trunk = Simulator(full, make_scheduler("cons", "FCFS"))
        trunk.run_until(len(short.jobs))
        got = Simulator.resume(trunk.snapshot(), short).drain()
        assert got.metrics.makespan == want.metrics.makespan
