"""Unit tests for the simulation engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_scheduler
from repro.experiments.runner import make_workload as build_workload
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sched.base import Scheduler
from repro.sim.engine import Simulator, simulate
from repro.sim.trace import EventTrace
from repro.workload.job import Workload

from tests.conftest import make_job, make_workload


class TestBasicScenarios:
    def test_single_job_runs_immediately(self):
        wl = make_workload([make_job(1, submit=5.0, runtime=100.0, procs=2)])
        result = simulate(wl, FCFSScheduler())
        record = result.completed[0]
        assert record.start_time == 5.0
        assert record.finish_time == 105.0
        assert record.wait == 0.0
        assert record.bounded_slowdown == 1.0

    def test_sequential_jobs_on_full_machine(self):
        wl = make_workload(
            [
                make_job(1, submit=0.0, runtime=100.0, procs=10),
                make_job(2, submit=0.0, runtime=50.0, procs=10),
            ]
        )
        result = simulate(wl, FCFSScheduler())
        starts = result.start_times()
        assert starts[1] == 0.0
        assert starts[2] == 100.0

    def test_parallel_jobs_share_machine(self):
        wl = make_workload(
            [
                make_job(1, submit=0.0, runtime=100.0, procs=4),
                make_job(2, submit=0.0, runtime=100.0, procs=6),
            ]
        )
        starts = simulate(wl, FCFSScheduler()).start_times()
        assert starts == {1: 0.0, 2: 0.0}

    def test_job_killed_at_estimate(self):
        # Runtime exceeds estimate: SWF semantics kill the job at its limit.
        wl = make_workload([make_job(1, runtime=200.0, estimate=50.0, procs=1)])
        record = simulate(wl, FCFSScheduler()).completed[0]
        assert record.finish_time == 50.0

    def test_all_jobs_complete(self):
        jobs = [
            make_job(i, submit=i * 10.0, runtime=25.0, procs=(i % 3) + 1)
            for i in range(1, 30)
        ]
        result = simulate(make_workload(jobs), EasyScheduler())
        assert len(result.completed) == 29

    def test_empty_workload(self):
        result = simulate(Workload((), max_procs=4), FCFSScheduler())
        assert result.completed == ()
        assert result.metrics.overall.count == 0


class TestEngineGuards:
    def test_simulator_single_use(self):
        wl = make_workload([make_job(1)])
        sim = Simulator(wl, FCFSScheduler())
        sim.run()
        with pytest.raises(SimulationError, match="only run once"):
            sim.run()

    def test_stalled_scheduler_detected(self):
        class DeadScheduler(Scheduler):
            name = "dead"

            def on_arrival(self, job, now):
                self._enqueue(job)
                return []

            def on_finish(self, job, now):
                return []

        wl = make_workload([make_job(1)])
        with pytest.raises(SchedulingError, match="unfinished"):
            simulate(wl, DeadScheduler())

    def test_double_start_detected(self):
        class GreedyScheduler(Scheduler):
            name = "greedy"

            def on_arrival(self, job, now):
                return [job, job]

            def on_finish(self, job, now):
                return []

        wl = make_workload([make_job(1, procs=1)])
        with pytest.raises(SimulationError, match="twice"):
            simulate(wl, GreedyScheduler())


class TestTrace:
    def test_trace_records_lifecycle(self):
        wl = make_workload([make_job(1, submit=3.0, runtime=10.0, procs=2)])
        trace = EventTrace()
        simulate(wl, FCFSScheduler(), trace=trace)
        actions = [(r.action, r.time) for r in trace]
        assert actions == [("arrive", 3.0), ("start", 3.0), ("finish", 13.0)]

    def test_trace_filter(self):
        wl = make_workload(
            [make_job(1, runtime=10.0), make_job(2, submit=1.0, runtime=10.0)]
        )
        trace = EventTrace()
        simulate(wl, FCFSScheduler(), trace=trace)
        assert len(trace.filter("start")) == 2

    def test_bounded_trace_drops_overflow(self):
        wl = make_workload(
            [make_job(i, submit=float(i), runtime=5.0) for i in range(1, 10)]
        )
        trace = EventTrace(max_records=5)
        simulate(wl, FCFSScheduler(), trace=trace)
        assert len(trace) == 5
        assert trace.dropped > 0

    def test_trace_rows_export(self):
        wl = make_workload([make_job(1)])
        trace = EventTrace()
        simulate(wl, FCFSScheduler(), trace=trace)
        rows = trace.as_rows()
        assert len(rows) == 3
        assert rows[0][1] == "arrive"


class TestDeterminism:
    def test_same_workload_same_schedule(self):
        jobs = [
            make_job(i, submit=i * 7.0, runtime=30.0 + i, procs=(i % 4) + 1)
            for i in range(1, 40)
        ]
        wl = make_workload(jobs)
        a = simulate(wl, EasyScheduler()).start_times()
        b = simulate(wl, EasyScheduler()).start_times()
        assert a == b

    def test_result_metadata(self):
        wl = make_workload([make_job(1)], name="meta-test")
        result = simulate(wl, FCFSScheduler())
        assert result.workload_name == "meta-test"
        assert result.scheduler_name == "NOBF(FCFS)"
        assert result.events_processed >= 2


class TestMakespan:
    """``makespan`` is the span from the first submit to the last finish."""

    @pytest.mark.parametrize(
        "kind",
        [
            pytest.param(
                "cons",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "ROADMAP item 17(a), and the CHANGES.md FOUND line on "
                        "sim/engine.py _finalize: makespan is taken from the "
                        "engine clock, which a reservation timer left armed "
                        "after its job started early runs past the last finish "
                        "(671,174 s against a 484,079 s span)"
                    ),
                ),
            ),
            "easy",  # requests no timers: 484,137 s both ways
        ],
    )
    def test_makespan_is_last_finish_minus_first_submit(self, kind):
        workload = build_workload(WorkloadSpec("CTC", 400, 1, 0.75, "user"))
        metrics = simulate(workload, make_scheduler(kind, "FCFS")).metrics
        first_submit = min(r.job.submit_time for r in metrics.records)
        last_finish = max(r.finish_time for r in metrics.records)
        assert metrics.makespan == last_finish - first_submit
