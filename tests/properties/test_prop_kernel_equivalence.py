"""Differential tests: optimized kernel vs the frozen reference kernel.

The fast-kernel work (list-backed Profile with fused ``claim``,
incremental sorted queues, buffer-reuse repack) is only admissible
because it is *behaviour-preserving*: every scheduler must produce the
byte-identical schedule it produced on the seed kernel.  These properties
pin that contract against ``tests/oracles/profile_ref.py``, the verbatim
pre-optimization implementation, and against a policy that switches the
incrementally sorted queue off (the EASY pass has its own frozen oracle,
``tests/properties/test_prop_easy_equivalence.py``):

* every scheduler x priority combination yields identical ``start_times()``
  on random inaccurate-estimate workloads (inaccurate estimates exercise
  the repack/compression paths where the optimizations live);
* a statically-keyed policy declared ``is_dynamic`` (order checked every
  pass) schedules exactly like its incrementally-sorted original;
* ``Profile.claim`` equals the ``find_start`` + ``reserve`` composition on
  random operation sequences, state and return value both;
* bulk ``from_running_jobs`` / ``rebuild_into`` equal R sequential
  reserves, including duplicate and epsilon-close horizons, and reusing
  one buffer across rebuilds leaves no residue.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.priority.policies import (
    FCFSPriority,
    LJFPriority,
    SJFPriority,
    XFactorPriority,
)
from repro.sched.profile import Profile
from repro.sim.engine import simulate
from repro.workload.job import Job, Workload

from tests.oracles import profile_ref
from tests.oracles.profile_ref import configure_reference_kernel

MAX_PROCS = 16


@st.composite
def workloads(draw, max_jobs=25):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += draw(st.floats(min_value=0.0, max_value=120.0))
        runtime = draw(st.floats(min_value=1.0, max_value=300.0))
        procs = draw(st.integers(min_value=1, max_value=MAX_PROCS))
        estimate = runtime * draw(st.floats(min_value=1.0, max_value=8.0))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=estimate,
                procs=procs,
            )
        )
    return Workload(tuple(jobs), max_procs=MAX_PROCS, name="prop-kernel")


SCHEDULER_FACTORIES = [
    FCFSScheduler,
    EasyScheduler,
    ConservativeScheduler,
    SelectiveScheduler,
    DepthScheduler,
    SlackScheduler,
]

PRIORITIES = [FCFSPriority, SJFPriority, XFactorPriority, LJFPriority]


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_every_scheduler_matches_reference_kernel(wl):
    for factory in SCHEDULER_FACTORIES:
        for priority in PRIORITIES:
            optimized = simulate(wl, factory(priority()))
            reference = simulate(
                wl, configure_reference_kernel(factory(priority()))
            )
            assert optimized.start_times() == reference.start_times(), (
                f"{factory.__name__} x {priority.__name__} diverged "
                "from the reference kernel"
            )


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_resorted_queue_matches_incrementally_sorted_queue(wl):
    """``is_dynamic = True`` forces the checked order; it must not change."""
    for factory in SCHEDULER_FACTORIES:
        for static in (FCFSPriority, SJFPriority, LJFPriority):
            resorting = type(
                f"Resorting{static.__name__}", (static,), {"is_dynamic": True}
            )
            insorted = simulate(wl, factory(static()))
            resorted = simulate(wl, factory(resorting()))
            assert insorted.start_times() == resorted.start_times(), (
                f"{factory.__name__} x {static.__name__} diverged between "
                "the incrementally sorted and the re-sorted queue"
            )


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_compression_ablations_match_reference_kernel(wl):
    for compression in ConservativeScheduler.COMPRESSION_MODES:
        optimized = simulate(wl, ConservativeScheduler(compression=compression))
        reference = simulate(
            wl,
            configure_reference_kernel(
                ConservativeScheduler(compression=compression)
            ),
        )
        assert optimized.start_times() == reference.start_times(), (
            f"compression={compression} diverged from the reference kernel"
        )


# -- profile-level equivalences ------------------------------------------------


@st.composite
def reservation_ops(draw, total=16, max_ops=30):
    """A random feasible op sequence: (procs, duration, earliest) claims."""
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(n):
        ops.append(
            (
                draw(st.integers(min_value=1, max_value=total)),
                draw(st.floats(min_value=0.5, max_value=200.0)),
                draw(st.floats(min_value=0.0, max_value=400.0)),
            )
        )
    return ops


@given(reservation_ops())
@settings(max_examples=100, deadline=None)
def test_claim_equals_find_start_plus_reserve(ops):
    total = 16
    fused = Profile(total)
    composed = Profile(total)
    oracle = profile_ref.Profile(total)
    for procs, duration, earliest in ops:
        got = fused.claim(procs, duration, earliest)
        start = composed.find_start(procs, duration, earliest)
        composed.reserve(procs, start, duration)
        assert got == start
        assert got == oracle.claim(procs, duration, earliest)
        assert fused.breakpoints() == composed.breakpoints()
        assert fused.breakpoints() == oracle.breakpoints()


@st.composite
def running_sets(draw, total=32, max_jobs=12):
    n = draw(st.integers(min_value=0, max_value=max_jobs))
    now = draw(st.floats(min_value=0.0, max_value=1000.0))
    running = []
    budget = total
    # Duplicate horizons are likely by construction: finishes are drawn
    # from a small grid of offsets, so several jobs often share one.
    offsets = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0),
            min_size=1,
            max_size=4,
        )
    )
    for _ in range(n):
        if budget <= 0:
            break
        procs = draw(st.integers(min_value=1, max_value=budget))
        budget -= procs
        finish = now + draw(st.sampled_from(offsets))
        running.append((procs, finish))
    return total, now, running


@given(running_sets())
@settings(max_examples=150, deadline=None)
def test_bulk_from_running_jobs_equals_sequential_reserves(case):
    total, now, running = case
    bulk = Profile.from_running_jobs(total, now, running)
    sequential = Profile(total, origin=now)
    for procs, finish in running:
        horizon = max(finish, now + 1e-6)
        sequential.reserve(procs, now, horizon - now)
    oracle = profile_ref.Profile.from_running_jobs(total, now, running)
    assert bulk.breakpoints() == sequential.breakpoints()
    assert bulk.breakpoints() == oracle.breakpoints()


@given(st.lists(running_sets(), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_rebuild_into_reuses_buffer_without_residue(cases):
    """One Profile rebuilt repeatedly equals a fresh build every time."""
    total = 32
    reused = Profile(total)
    for _, now, running in cases:
        reused.rebuild_into(now, running)
        fresh = Profile.from_running_jobs(total, now, running)
        assert reused.breakpoints() == fresh.breakpoints()
