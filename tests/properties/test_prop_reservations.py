"""Property tests: advance reservations.

Windows add *hard constraints* on top of scheduling; these tests verify
the constraints hold on random workloads by reconstructing the
resource usage from the completed records (never trusting the scheduler's
own bookkeeping).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.reservations import AdvanceReservation
from repro.sim.engine import simulate
from repro.workload.job import Job, Workload

MAX_PROCS = 12


@st.composite
def workloads(draw, max_jobs=18):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += draw(st.floats(min_value=0.0, max_value=90.0))
        runtime = draw(st.floats(min_value=1.0, max_value=200.0))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=runtime * draw(st.floats(min_value=1.0, max_value=4.0)),
                procs=draw(st.integers(min_value=1, max_value=MAX_PROCS)),
            )
        )
    return Workload(tuple(jobs), max_procs=MAX_PROCS, name="prop-ar")


@st.composite
def reservations(draw):
    """Valid AR sets: greedily drop windows that would jointly oversubscribe."""
    from repro.sched.reservations import validate_reservation_set
    from repro.errors import ConfigurationError

    n = draw(st.integers(min_value=1, max_value=3))
    windows: list[AdvanceReservation] = []
    for _ in range(n):
        candidate = AdvanceReservation(
            procs=draw(st.integers(min_value=1, max_value=MAX_PROCS)),
            start=draw(st.floats(min_value=10.0, max_value=2000.0)),
            duration=draw(st.floats(min_value=10.0, max_value=400.0)),
        )
        try:
            validate_reservation_set(windows + [candidate], MAX_PROCS)
        except ConfigurationError:
            continue
        windows.append(candidate)
    return tuple(windows)


AR_SCHEDULERS = [
    lambda ars: ConservativeScheduler(advance_reservations=ars),
    lambda ars: SelectiveScheduler(advance_reservations=ars),
    lambda ars: DepthScheduler(depth=2, advance_reservations=ars),
]


@given(workloads(), reservations())
@settings(max_examples=40, deadline=None)
def test_jobs_and_reservations_never_oversubscribe(wl, ars):
    """Sweep-line over (jobs + AR windows): capacity never exceeded.

    The engine would raise on a direct violation; this reconstructs usage
    from the *records*, independently of all scheduler/engine accounting.
    """
    for factory in AR_SCHEDULERS:
        result = simulate(wl, factory(ars))
        assert result.metrics.overall.count == len(wl)
        events = []
        for record in result.completed:
            events.append((record.start_time, 1, record.job.procs))
            events.append((record.finish_time, 0, record.job.procs))
        for ar in ars:
            events.append((ar.start, 1, ar.procs))
            events.append((ar.end, 0, ar.procs))
        events.sort()
        busy = 0
        for _, kind, procs in events:
            busy += procs if kind == 1 else -procs
            assert busy <= MAX_PROCS
