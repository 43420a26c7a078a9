"""Additional edge-case coverage for the simulation substrate.

Scenarios the main test modules do not reach: zero-duration batches with
mixed event kinds, timer deduplication, held advance reservations, and machine
accounting across long idle periods.
"""

import pytest

from repro.cluster.machine import Machine
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.reservations import AdvanceReservation
from repro.sim.engine import Simulator, simulate
from repro.sim.trace import EventTrace

from tests.conftest import make_job, make_workload


class TestSameInstantPileups:
    def test_many_jobs_submitted_and_finishing_at_once(self):
        # 5 jobs all at t=0 finishing at t=50, 5 more arriving exactly at
        # t=50: the batch discipline must hand the arrivals a fully
        # released machine.
        jobs = [make_job(i, submit=0.0, runtime=50.0, procs=2) for i in range(1, 6)]
        jobs += [make_job(i, submit=50.0, runtime=50.0, procs=2) for i in range(6, 11)]
        starts = simulate(make_workload(jobs), EasyScheduler()).start_times()
        for i in range(1, 6):
            assert starts[i] == 0.0
        for i in range(6, 11):
            assert starts[i] == 50.0

    def test_identical_jobs_preserve_submission_order_under_fcfs(self):
        jobs = [make_job(i, submit=10.0, runtime=100.0, procs=10) for i in range(1, 5)]
        starts = simulate(make_workload(jobs), EasyScheduler()).start_times()
        assert starts == {1: 10.0, 2: 110.0, 3: 210.0, 4: 310.0}

    def test_conservative_pileup_with_early_finishers(self):
        # Early completions landing on the same timestamp as arrivals.
        jobs = [
            make_job(1, submit=0.0, runtime=50.0, estimate=100.0, procs=10),
            make_job(2, submit=50.0, runtime=20.0, procs=10),
            make_job(3, submit=50.0, runtime=20.0, procs=10),
        ]
        starts = simulate(make_workload(jobs), ConservativeScheduler()).start_times()
        assert starts[2] == 50.0
        assert starts[3] == 70.0


class TestMachineIdlePeriods:
    def test_utilization_through_long_idle_gap(self):
        machine = Machine(10)
        a = make_job(1, procs=10)
        machine.allocate(a, 0.0)
        machine.release(a, 100.0)
        b = make_job(2, procs=10)
        machine.allocate(b, 900.0)
        machine.release(b, 1000.0)
        assert machine.utilization() == pytest.approx(0.2)


class TestTraceWithBlockers:
    def test_blockers_do_not_appear_in_trace_or_metrics(self):
        ar = AdvanceReservation(procs=10, start=100.0, duration=50.0)
        wl = make_workload([make_job(1, submit=0.0, runtime=60.0, procs=4)])
        trace = EventTrace()
        result = simulate(
            wl, ConservativeScheduler(advance_reservations=(ar,)), trace=trace
        )
        assert result.metrics.overall.count == 1
        assert all(r.job_id == 1 for r in trace)

    def test_utilization_includes_blocked_capacity(self):
        # A full-machine AR while no jobs run still counts as busy time.
        ar = AdvanceReservation(procs=10, start=0.0, duration=100.0)
        wl = make_workload([make_job(1, submit=0.0, runtime=100.0, procs=10)])
        result = simulate(wl, ConservativeScheduler(advance_reservations=(ar,)))
        # Job must wait for the window: machine busy [0,100) blocker,
        # [100,200) job -> utilization 1.0 over the horizon.
        assert result.start_times()[1] == 100.0
        assert result.metrics.utilization == pytest.approx(1.0)
