"""Differential tests: shipped reservation-family schedulers vs the frozen planners.

Conservative, selective, depth and slack plan through one shared core
(``repro.sched.plan``).  Sharing code turns the cross-discipline
equalities the behavioural suites check (selective @ 1.0 ≡ depth @ ∞ ≡
conservative repack; slack @ 0 ≡ conservative FCFS) into near-tautologies,
so the four *independent* implementations that preceded the core are
frozen verbatim in ``tests/oracles/planners.py`` and every shipped
discipline must reproduce its frozen original byte for byte:

* identical ``(job_id, start_time)`` lists for every configuration the
  experiments and tests use — conservative under all four compressions,
  selective at thresholds 1.0 / 2.0 / inf, depth at 1 / 4 / ≥ queue
  length, slack at factors 0 / 1.0 — under FCFS, SJF, XF and LJF, with
  exact and with inaccurate estimates;
* the same with advance reservations carved into the plan, on the three
  disciplines that accept them;
* the frozen planners driven through ``Scheduler.profile_factory`` onto
  the reference kernel (``tests/oracles/profile_ref.py``) agree too, so
  the seam the shared core plans through is the one the oracles use;
* a shipped scheduler forked at a drawn arrival continues identically in
  both halves — the shared ``_fork_into`` decides what happens to the
  depth / selective / slack planning profile.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.errors import ConfigurationError
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.priority.policies import (
    FCFSPriority,
    LJFPriority,
    SJFPriority,
    XFactorPriority,
)
from repro.sched.reservations import AdvanceReservation, validate_reservation_set
from repro.sim.engine import Simulator, simulate
from repro.workload.job import Job, Workload

from tests.conftest import BATCH_TRAP
from tests.oracles import planners
from tests.oracles.profile_ref import configure_reference_kernel

MAX_PROCS = 16
MAX_JOBS = 25

PRIORITIES = [FCFSPriority, SJFPriority, XFactorPriority, LJFPriority]

SHIPPED = {
    "cons": ConservativeScheduler,
    "sel": SelectiveScheduler,
    "depth": DepthScheduler,
    "slack": SlackScheduler,
}
FROZEN = {
    "cons": planners.ConservativeScheduler,
    "sel": planners.SelectiveScheduler,
    "depth": planners.DepthScheduler,
    "slack": planners.SlackScheduler,
}

#: (discipline, constructor keywords) — every setting a caller uses.
CONFIGS = (
    [("cons", {"compression": mode}) for mode in ConservativeScheduler.COMPRESSION_MODES]
    + [("sel", {"xfactor_threshold": t}) for t in (1.0, 2.0, float("inf"))]
    + [("depth", {"depth": k}) for k in (1, 4, MAX_JOBS + 1)]
    + [("slack", {"slack_factor": f}) for f in (0.0, 1.0)]
)
AR_CONFIGS = [config for config in CONFIGS if config[0] != "slack"]


@st.composite
def workloads(draw, min_jobs=1):
    n = draw(st.integers(min_value=min_jobs, max_value=MAX_JOBS))
    exact = draw(st.booleans())
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += draw(st.floats(min_value=0.0, max_value=120.0))
        runtime = draw(st.floats(min_value=1.0, max_value=300.0))
        inflation = 1.0 if exact else draw(st.floats(min_value=1.0, max_value=8.0))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=runtime * inflation,
                procs=draw(st.integers(min_value=1, max_value=MAX_PROCS)),
            )
        )
    return Workload(tuple(jobs), max_procs=MAX_PROCS, name="prop-planner")


@st.composite
def reservations(draw):
    """Valid AR sets: windows that would jointly oversubscribe are dropped."""
    windows: list[AdvanceReservation] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
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


def _schedule(result) -> list[tuple[int, float]]:
    return [(record.job.job_id, record.start_time) for record in result.completed]


def _label(kind, kwargs, priority) -> str:
    return f"{kind}({kwargs}) x {priority.__name__}"


@given(workloads())
@example(BATCH_TRAP)
@settings(max_examples=30, deadline=None)
def test_shipped_schedulers_match_frozen_planners(wl):
    for kind, kwargs in CONFIGS:
        for priority in PRIORITIES:
            got = simulate(wl, SHIPPED[kind](priority(), **kwargs))
            want = simulate(wl, FROZEN[kind](priority(), **kwargs))
            assert _schedule(got) == _schedule(want), (
                f"{_label(kind, kwargs, priority)} diverged from its frozen planner"
            )
            assert got.events_processed == want.events_processed


@given(workloads(), reservations())
@settings(max_examples=20, deadline=None)
def test_shipped_schedulers_match_frozen_planners_around_advance_reservations(wl, ars):
    for kind, kwargs in AR_CONFIGS:
        for priority in PRIORITIES:
            got = simulate(
                wl, SHIPPED[kind](priority(), advance_reservations=ars, **kwargs)
            )
            want = simulate(
                wl, FROZEN[kind](priority(), advance_reservations=ars, **kwargs)
            )
            assert _schedule(got) == _schedule(want), (
                f"{_label(kind, kwargs, priority)} diverged from its frozen "
                f"planner around {ars}"
            )


@given(workloads())
@example(BATCH_TRAP)
@settings(max_examples=15, deadline=None)
def test_frozen_planners_on_the_reference_kernel_agree(wl):
    """Shipped discipline on the shipped kernel ≡ frozen planner on the
    frozen kernel: the two oracles compose through ``profile_factory``."""
    for kind, kwargs in CONFIGS:
        for priority in PRIORITIES:
            got = simulate(wl, SHIPPED[kind](priority(), **kwargs))
            want = simulate(
                wl, configure_reference_kernel(FROZEN[kind](priority(), **kwargs))
            )
            assert _schedule(got) == _schedule(want), (
                f"{_label(kind, kwargs, priority)} diverged from its frozen "
                "planner on the reference kernel"
            )


@st.composite
def fork_points(draw):
    """A workload and the index of the arrival to pause before."""
    wl = draw(workloads(min_jobs=2))
    return wl, draw(st.integers(min_value=1, max_value=len(wl.jobs) - 1))


@given(fork_points())
@example((BATCH_TRAP, 24))  # between the burst and the straggler
@settings(max_examples=20, deadline=None)
def test_forked_shipped_scheduler_continues_like_the_frozen_planner(case):
    """Pause before a drawn arrival, fork, drain both halves."""
    wl, fork_at = case
    for kind, kwargs in CONFIGS:
        for priority in (FCFSPriority, XFactorPriority):
            want = _schedule(simulate(wl, FROZEN[kind](priority(), **kwargs)))
            trunk = Simulator(wl, SHIPPED[kind](priority(), **kwargs))
            trunk.run_until(fork_at)
            branch = Simulator.resume(trunk.snapshot(), wl)
            assert _schedule(branch.drain()) == want, (
                f"{_label(kind, kwargs, priority)}: forked half diverged"
            )
            assert _schedule(trunk.drain()) == want, (
                f"{_label(kind, kwargs, priority)}: original half diverged "
                "after being forked"
            )
