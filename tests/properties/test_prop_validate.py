"""Property tests: the validators accept every real schedule."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.lookahead import LookaheadScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.validate import validate_no_backfill, validate_schedule
from repro.sim.engine import simulate
from repro.workload.job import Job, Workload

MAX_PROCS = 12

SCHEDULERS = [
    FCFSScheduler,
    EasyScheduler,
    ConservativeScheduler,
    SelectiveScheduler,
    LookaheadScheduler,
]


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += draw(st.floats(min_value=0.0, max_value=100.0))
        runtime = draw(st.floats(min_value=1.0, max_value=200.0))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=runtime * draw(st.floats(min_value=1.0, max_value=5.0)),
                procs=draw(st.integers(min_value=1, max_value=MAX_PROCS)),
            )
        )
    return Workload(tuple(jobs), max_procs=MAX_PROCS, name="prop-validate")


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_every_schedulers_output_passes_validation(wl):
    for factory in SCHEDULERS:
        result = simulate(wl, factory())
        assert validate_schedule(wl, result.completed) == []


@given(workloads())
@settings(max_examples=30, deadline=None)
def test_nobf_output_passes_order_validation(wl):
    result = simulate(wl, FCFSScheduler())
    assert validate_no_backfill(result.completed) == []

