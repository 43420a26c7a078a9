"""Differential tests: the shipped EASY pass vs the frozen one.

The EASY pass is event-incremental: running releases are kept sorted
between events instead of re-sorted per blocked pass, a dynamic policy's
order is checked and re-sorted only when two keys have crossed, queued
jobs leave by identity, and the phases walk the order by index.  None of
that may change a schedule, so ``tests/oracles/easy.py`` freezes the
previous ``EasyScheduler`` and ``LookaheadScheduler`` — shadow memo, full
re-sort per pass and all — and every shipped pass must reproduce its
frozen original byte for byte, ``(job_id, start_time)`` lists and
``events_processed`` alike:

* EASY and lookahead under FCFS, SJF, XF and LJF, with exact and with
  inaccurate estimates;
* a static policy redeclared ``is_dynamic``, which drives the checked
  order with the generic per-job keys instead of XF's inlined ones;
* a run paused before a drawn arrival, snapshotted and resumed: both the
  branch and the original ≡ the frozen monolithic run, so the release
  list and the order hint survive ``fork``;
* grid sites with replicated dispatch, where losing replicas leave their
  queues through ``cancel`` and the identity dequeue;
* under XF, ``queued_jobs`` stays in arrival order across passes (the
  grid's least-loaded dispatch float-sums it, and slack iterates it).
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.grid.dispatch import LeastLoadedDispatch
from repro.grid.engine import GridSimulator
from repro.grid.site import GridSite
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.lookahead import LookaheadScheduler
from repro.sched.priority.policies import (
    FCFSPriority,
    LJFPriority,
    SJFPriority,
    XFactorPriority,
)
from repro.sim.engine import Simulator, simulate
from repro.workload.job import Job, Workload

from tests.conftest import BATCH_TRAP
from tests.oracles import easy as frozen

MAX_PROCS = 16
MAX_JOBS = 25

PAIRS = {
    "EASY": (EasyScheduler, frozen.EasyScheduler),
    "LOOK": (LookaheadScheduler, frozen.LookaheadScheduler),
}


PRIORITIES = {
    "FCFS": FCFSPriority,
    "SJF": SJFPriority,
    "XF": XFactorPriority,
    "LJF": LJFPriority,
}

#: Static policies redeclared dynamic: the checked order with generic keys.
REDECLARED = {
    static.__name__: type(f"Dynamic{static.__name__}", (static,), {"is_dynamic": True})
    for static in (FCFSPriority, SJFPriority, LJFPriority)
}


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
                user_id=draw(st.integers(min_value=0, max_value=3)),
            )
        )
    return Workload(tuple(jobs), max_procs=MAX_PROCS, name="prop-easy")


#: The stale-memo workload, which random draws rarely reach: under SJF
#: job 3 is the blocked head at t=87 and t=244 with 6 processors free both
#: times, but the running set changed in between (job 5 started, job 1
#: finished) — a shadow that survived the change would let job 4 overtake
#: job 3.
STALE_SHADOW_WORKLOAD = Workload(
    tuple(
        Job(
            job_id=job_id,
            submit_time=submit,
            runtime=runtime,
            estimate=estimate,
            procs=procs,
        )
        for job_id, submit, runtime, estimate, procs in (
            (1, 4.0, 240.0, 720.0, 4),
            (2, 7.0, 80.0, 240.0, 5),
            (3, 10.0, 140.0, 280.0, 7),
            (4, 14.0, 300.0, 300.0, 5),
            (5, 15.0, 290.0, 290.0, 4),
        )
    ),
    max_procs=10,
    name="stale-shadow",
)


def _schedule(result) -> list[tuple[int, float]]:
    return [(record.job.job_id, record.start_time) for record in result.completed]


def _assert_same(wl, shipped, reference, label):
    got = simulate(wl, shipped)
    want = simulate(wl, reference)
    assert _schedule(got) == _schedule(want), f"{label} diverged from the frozen pass"
    assert got.events_processed == want.events_processed, label


@given(workloads())
@example(BATCH_TRAP)
@example(STALE_SHADOW_WORKLOAD)
@settings(max_examples=30, deadline=None)
def test_shipped_easy_pass_matches_frozen_pass(wl):
    for kind, (shipped, reference) in PAIRS.items():
        for name, priority in PRIORITIES.items():
            _assert_same(wl, shipped(priority()), reference(priority()), f"{kind} x {name}")


@given(workloads())
@example(BATCH_TRAP)
@settings(max_examples=20, deadline=None)
def test_checked_order_with_generic_keys_matches_frozen_pass(wl):
    for kind, (shipped, reference) in PAIRS.items():
        for name, redeclared in REDECLARED.items():
            _assert_same(
                wl, shipped(redeclared()), reference(redeclared()), f"{kind} x dynamic {name}"
            )


@st.composite
def fork_points(draw):
    """A workload and the index of the arrival to pause before."""
    wl = draw(workloads(min_jobs=2))
    return wl, draw(st.integers(min_value=1, max_value=len(wl.jobs) - 1))


@given(fork_points())
@example((BATCH_TRAP, 24))  # between the burst and the straggler
@settings(max_examples=20, deadline=None)
def test_resumed_halves_match_the_frozen_monolithic_run(case):
    wl, fork_at = case
    for kind, (shipped, reference) in PAIRS.items():
        for name, priority in PRIORITIES.items():
            label = f"{kind} x {name}"
            want = simulate(wl, reference(priority()))
            trunk = Simulator(wl, shipped(priority()))
            trunk.run_until(fork_at)
            branch = Simulator.resume(trunk.snapshot(), wl).drain()
            original = trunk.drain()
            for half, result in (("forked", branch), ("original", original)):
                assert _schedule(result) == _schedule(want), f"{label}: {half} half diverged"
                assert result.events_processed == want.events_processed, label


@given(workloads(), st.integers(min_value=2, max_value=3))
@settings(max_examples=20, deadline=None)
def test_grid_sites_with_cancelled_replicas_match_frozen_pass(wl, replication):
    def run(factory, priority):
        sites = [GridSite(f"s{i}", MAX_PROCS, factory(priority())) for i in range(3)]
        result = GridSimulator(wl, sites, dispatch=LeastLoadedDispatch(replication)).run()
        return _schedule(result), result.site_of()

    for kind, (shipped, reference) in PAIRS.items():
        for name in ("FCFS", "XF"):
            priority = PRIORITIES[name]
            assert run(shipped, priority) == run(reference, priority), (
                f"{kind} x {name} diverged on the grid"
            )


@given(fork_points())
@example((BATCH_TRAP, 24))
@settings(max_examples=20, deadline=None)
def test_dynamic_queue_storage_stays_in_arrival_order(case):
    wl, last = case
    arrival = {job.job_id: index for index, job in enumerate(wl.jobs)}
    sim = Simulator(wl, EasyScheduler(XFactorPriority()))
    for horizon in range(1, last + 1):
        sim.run_until(horizon)
        queued = [arrival[job.job_id] for job in sim.scheduler.queued_jobs]
        assert queued == sorted(queued)
