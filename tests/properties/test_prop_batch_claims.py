"""Differential tests: batch profile primitives vs their scalar loops.

The batched backfill kernel (``claim_many``, ``min_free_many``) is only
admissible because every batch call is *exactly* the corresponding
scalar loop: same return values, same profile state, bit for bit.  These
properties pin that contract twice over — against a scalar loop on the
optimized kernel itself, and against ``tests/oracles/profile_ref.py``,
the frozen pre-optimization oracle whose batch methods ARE naive loops.

The op strategies deliberately draw durations and anchors from coarse
grids with sub-``_EPS`` and near-``_EPS`` jitter: the kernel's equality
tolerances (the ``- _EPS`` covering test, ``_ensure_breakpoint``'s
two-sided snap) only diverge on inputs that land within a whisker of an
existing breakpoint, so epsilon-close edges are where batch/scalar
equivalence would break first.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ProfileError
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.profile import Profile
from repro.sim.engine import simulate
from repro.workload.job import Job, Workload

from tests.oracles import profile_ref

TOTAL = 16

#: Sub-eps and just-above-eps offsets (kernel ``_EPS`` is 1e-9): claims
#: jittered by these land on, inside, and just outside the snap tolerance
#: of breakpoints created by earlier claims on the coarse grid.
JITTER = (0.0, 2e-10, 9e-10, 1.1e-9, 1e-7)


@st.composite
def jittered_ops(draw, max_ops=20):
    """(procs, duration, earliest) triples on a grid with eps-scale jitter."""
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(n):
        procs = draw(st.integers(min_value=1, max_value=TOTAL))
        duration = draw(st.sampled_from((0.5, 1.0, 2.0, 10.0, 50.0))) + draw(
            st.sampled_from(JITTER)
        )
        earliest = draw(st.sampled_from((0.0, 1.0, 2.5, 10.0, 60.0))) + draw(
            st.sampled_from(JITTER)
        )
        ops.append((procs, duration, earliest))
    return ops


@st.composite
def batch_cases(draw):
    """A profile pre-seeded by random claims, plus a batch to run on it."""
    prefix = draw(jittered_ops(max_ops=12))
    batch = draw(jittered_ops(max_ops=15))
    earliest = draw(st.sampled_from((0.0, 1.0, 30.0))) + draw(
        st.sampled_from(JITTER)
    )
    return prefix, batch, earliest


def _seeded(prefix):
    """Optimized and oracle profiles with identical claim history."""
    fast = Profile(TOTAL)
    oracle = profile_ref.Profile(TOTAL)
    for procs, duration, anchor in prefix:
        fast.claim(procs, duration, anchor)
        oracle.claim(procs, duration, anchor)
    return fast, oracle


@given(batch_cases())
@settings(max_examples=150, deadline=None)
def test_claim_many_equals_sequential_claims_on_both_kernels(case):
    prefix, batch, earliest = case
    batched, oracle_batched = _seeded(prefix)
    sequential, _ = _seeded(prefix)

    procs = [p for p, _, _ in batch]
    durations = [d for _, d, _ in batch]
    got = batched.claim_many(procs, durations, earliest)
    want = [sequential.claim(p, d, earliest) for p, d, _ in batch]
    assert got == want
    assert batched.breakpoints() == sequential.breakpoints()

    oracle_got = oracle_batched.claim_many(procs, durations, earliest)
    assert got == oracle_got
    assert batched.breakpoints() == oracle_batched.breakpoints()


def test_large_batch_equals_oracle_claim_loop():
    """Scale: one deep batch on the list kernel is still the oracle's loop.

    The property cases above stay under 30 breakpoints; this one ends
    past 1,000, where an index slip in the carried anchor or the
    ``list.insert`` / ``del`` bookkeeping has 1,500 claims to compound.
    """
    rng = random.Random(13)
    running, busy = [], 0
    while busy < 400:
        width = rng.randint(1, 16)
        running.append((width, rng.uniform(1e5, 1.6e5)))
        busy += width
    procs = [rng.randint(1, 64) for _ in range(1500)]
    durations = [rng.uniform(60.0, 64800.0) for _ in range(1500)]

    fast = Profile.from_running_jobs(430, 1e5, running)
    oracle = profile_ref.Profile.from_running_jobs(430, 1e5, running)
    assert fast.breakpoints() == oracle.breakpoints()
    got = fast.claim_many(procs, durations, 1e5)
    want = [oracle.claim(p, d, 1e5) for p, d in zip(procs, durations)]
    assert got == want
    assert fast.breakpoints() == oracle.breakpoints()
    assert len(fast.breakpoints()) > 1000


@given(batch_cases())
@settings(max_examples=100, deadline=None)
def test_find_start_equals_claim_on_a_fork(case):
    """The one sweep, pinned from both entry points.

    ``find_start`` is the bare sweep and ``claim`` the sweep plus the
    reservation, so on equal states they must name the same start — on
    both kernels — and the query must leave the profile untouched.
    """
    prefix, batch, _ = case
    fast, oracle = _seeded(prefix)
    for procs, duration, earliest in batch:
        before = fast.breakpoints()
        found = fast.find_start(procs, duration, earliest)
        assert fast.breakpoints() == before
        assert fast.fork().claim(procs, duration, earliest) == found
        assert oracle.find_start(procs, duration, earliest) == found
        assert fast.claim(procs, duration, earliest) == found
        oracle.claim(procs, duration, earliest)


@given(batch_cases())
@settings(max_examples=100, deadline=None)
def test_min_free_many_equals_scalar_min_free(case):
    prefix, batch, start = case
    fast, oracle = _seeded(prefix)
    durations = [d for _, d, _ in batch]
    got = fast.min_free_many(durations, start)
    assert got == [fast.min_free(start, d) for d in durations]
    assert got == oracle.min_free_many(durations, start)


@st.composite
def workloads(draw, max_jobs=25):
    """Small inaccurate-estimate workloads (exercise repack/backfill paths)."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += draw(st.floats(min_value=0.0, max_value=60.0))
        runtime = draw(st.floats(min_value=1.0, max_value=300.0))
        procs = draw(st.integers(min_value=1, max_value=TOTAL))
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
    return Workload(tuple(jobs), max_procs=TOTAL, name="prop-batch")


class SequentialClaims(Profile):
    """The production kernel with ``claim_many`` as the naive ``claim`` loop."""

    def claim_many(self, procs, durations, earliest):
        return [self.claim(p, d, earliest) for p, d in zip(procs, durations)]


@given(workloads())
@settings(max_examples=30, deadline=None)
def test_batched_schedulers_match_sequential_claim_path(wl):
    """Every ``claim_many`` consumer: batch schedule == sequential-claim schedule.

    Same kernel on both legs, so a divergence isolates the batching (the
    incremental anchor, the inlined apply) from any kernel difference the
    oracle comparison in ``test_prop_kernel_equivalence.py`` would show.
    """
    factories = [
        ConservativeScheduler,
        SelectiveScheduler,
        DepthScheduler,
        SlackScheduler,
    ]
    for factory in factories:
        batched = simulate(wl, factory())
        sequential_scheduler = factory()
        sequential_scheduler.profile_factory = SequentialClaims
        sequential = simulate(wl, sequential_scheduler)
        assert batched.start_times() == sequential.start_times(), (
            f"{factory.__name__} diverged between batch and sequential claims"
        )


def test_claim_many_empty_batch_is_noop():
    profile = Profile(TOTAL)
    before = profile.breakpoints()
    assert profile.claim_many([], [], 0.0) == []
    assert profile.min_free_many([], 0.0) == []
    assert profile.breakpoints() == before


@pytest.mark.parametrize(
    "procs, durations, message",
    [
        ([4, 0], [1.0, 1.0], "cannot place 0 procs"),
        ([4, TOTAL + 1], [1.0, 1.0], f"cannot place {TOTAL + 1} procs"),
        ([4, 4], [1.0, -2.0], "duration must be > 0"),
        ([-1, 4, 4], [1.0, 1.0, 1.0], "cannot place -1 procs"),
        ([4, 4, 4], [0.0, 1.0, 1.0], "duration must be > 0, got 0.0"),
        ([4, 4, 4], [1.0, 1.0, -3.0], "duration must be > 0, got -3.0"),
    ],
)
def test_claim_many_validates_up_front_profile_untouched(
    procs, durations, message
):
    """Invalid input anywhere in the batch fails fast, before any claim."""
    profile = Profile(TOTAL)
    profile.claim(8, 5.0, 0.0)
    profile.claim(12, 3.0, 2.0)
    before = profile.breakpoints()
    with pytest.raises(ProfileError, match=message):
        profile.claim_many(procs, durations, 0.0)
    assert profile.breakpoints() == before
