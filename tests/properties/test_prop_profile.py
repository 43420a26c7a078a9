"""Property-based tests for the availability profile.

The profile is the data structure every backfilling decision rests on, so
it gets the heaviest property coverage: random reserve/release programs
must keep the step function within bounds, releases must perfectly invert
reserves, and find_start must return the *earliest feasible* anchor.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.sched.profile import Profile
from repro.sched.tol import EPS_SNAP

TOTAL = 32

reservations = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=TOTAL // 2),  # procs
        st.floats(min_value=0.0, max_value=1000.0),  # start
        st.floats(min_value=1.0, max_value=500.0),  # duration
    ),
    min_size=0,
    max_size=12,
)


def build(profile_reservations):
    """Apply reservations, skipping any that would over-subscribe."""
    profile = Profile(TOTAL)
    applied = []
    for procs, start, duration in profile_reservations:
        if profile.min_free(start, duration) >= procs:
            profile.reserve(procs, start, duration)
            applied.append((procs, start, duration))
    return profile, applied


@given(reservations)
def test_free_counts_always_within_bounds(rs):
    profile, _ = build(rs)
    for _, free in profile.breakpoints():
        assert 0 <= free <= TOTAL


@given(reservations)
def test_release_inverts_reserve(rs):
    profile, applied = build(rs)
    for procs, start, duration in reversed(applied):
        profile.release(procs, start, duration)
    assert profile.breakpoints() == [(0.0, TOTAL)]


@given(reservations)
def test_breakpoints_strictly_increasing_and_coalesced(rs):
    profile, _ = build(rs)
    points = profile.breakpoints()
    for (t1, f1), (t2, f2) in zip(points, points[1:]):
        assert t1 < t2
        assert f1 != f2  # adjacent equal segments must be merged


@given(
    reservations,
    st.integers(min_value=1, max_value=TOTAL),
    st.floats(min_value=1.0, max_value=400.0),
    st.floats(min_value=0.0, max_value=800.0),
)
@settings(max_examples=200)
def test_find_start_returns_earliest_feasible(rs, procs, duration, earliest):
    profile, _ = build(rs)
    start = profile.find_start(procs, duration, earliest)
    # Feasible:
    assert start >= earliest
    assert profile.min_free(start, duration) >= procs
    # Earliest among candidate anchors (earliest itself and breakpoints):
    candidates = [earliest] + [t for t, _ in profile.breakpoints() if t > earliest]
    for anchor in candidates:
        if anchor >= start:
            break
        assert profile.min_free(anchor, duration) < procs


@given(
    reservations,
    st.integers(min_value=1, max_value=TOTAL),
    st.floats(min_value=1.0, max_value=400.0),
    st.floats(min_value=0.0, max_value=800.0),
)
@example([(1, 0.0, 2.0), (1, 2.22e-16, 1.0)], 31, 1.0, 1.0)
@example([(1, 0.0, 1.0000000000000002)], 31, 1.0, 1.0)
@settings(max_examples=200)
def test_a_start_is_feasible_and_none_lies_eps_before_it(rs, procs, duration, earliest):
    # The kernel's contract with its own tolerance: a start may follow a
    # feasible anchor by up to EPS_SNAP (times that close are one
    # instant), never by more; claim names the start find_start found.
    profile, _ = build(rs)
    start = profile.find_start(procs, duration, earliest)
    assert start >= earliest
    assert profile.min_free(start, duration) >= procs
    candidates = [earliest] + [t for t, _ in profile.breakpoints() if t > earliest]
    for anchor in candidates:
        if anchor >= start - EPS_SNAP:
            break
        assert profile.min_free(anchor, duration) < procs
    assert profile.claim(procs, duration, earliest) == start


@given(reservations, st.floats(min_value=0.0, max_value=1500.0))
def test_advance_preserves_future_shape(rs, advance_to):
    profile, _ = build(rs)
    before = {t: f for t, f in profile.breakpoints()}
    future_points = [(t, f) for t, f in before.items() if t > advance_to]
    profile.advance(advance_to)
    after = dict(profile.breakpoints())
    for t, f in future_points:
        assert after.get(t, None) == f or any(
            # the point may have been coalesced into an equal-valued run
            abs(t2 - t) < 1e-9 or (t2 < t and f2 == f)
            for t2, f2 in after.items()
        )
    # Free level at the new origin matches the pre-advance level there.
    assert profile.free_at(advance_to) == Profile.free_at(profile, advance_to)


@given(reservations)
def test_min_free_consistent_with_free_at(rs):
    profile, _ = build(rs)
    points = profile.breakpoints()
    for t, f in points:
        assert profile.free_at(t) == f
    if len(points) >= 2:
        window_start = points[0][0]
        window_end = points[-1][0]
        duration = window_end - window_start
        if duration > 0:
            expected = min(f for t, f in points[:-1])
            assert profile.min_free(window_start, duration) == expected
