"""Unit tests for the availability profile."""

import numpy as np
import pytest

from repro.errors import ProfileError
from repro.sched.profile import Profile

from tests.oracles import profile_ref


class TestConstruction:
    def test_initial_profile_fully_free(self):
        p = Profile(16)
        assert p.free_at(0.0) == 16
        assert p.free_at(1e9) == 16
        assert p.breakpoints() == [(0.0, 16)]

    def test_invalid_size_rejected(self):
        with pytest.raises(ProfileError):
            Profile(0)

    def test_custom_origin(self):
        p = Profile(8, origin=100.0)
        assert p.origin == 100.0
        with pytest.raises(ProfileError, match="precedes"):
            p.free_at(50.0)


class TestReserveRelease:
    def test_reserve_carves_window(self):
        p = Profile(10)
        p.reserve(4, 10.0, 20.0)
        assert p.free_at(5.0) == 10
        assert p.free_at(10.0) == 6
        assert p.free_at(29.9) == 6
        assert p.free_at(30.0) == 10

    def test_overlapping_reserves_stack(self):
        p = Profile(10)
        p.reserve(4, 0.0, 100.0)
        p.reserve(3, 50.0, 100.0)
        assert p.free_at(25.0) == 6
        assert p.free_at(75.0) == 3
        assert p.free_at(125.0) == 7

    def test_release_undoes_reserve(self):
        p = Profile(10)
        p.reserve(4, 10.0, 20.0)
        p.release(4, 10.0, 20.0)
        assert p.breakpoints() == [(0.0, 10)]

    def test_oversubscription_rejected(self):
        p = Profile(10)
        p.reserve(8, 0.0, 100.0)
        with pytest.raises(ProfileError, match="free count"):
            p.reserve(4, 50.0, 10.0)

    def test_failed_reserve_leaves_profile_unchanged(self):
        p = Profile(10)
        p.reserve(8, 0.0, 100.0)
        before = p.breakpoints()
        with pytest.raises(ProfileError):
            p.reserve(4, 50.0, 100.0)
        assert p.free_at(75.0) == 2
        assert [f for _, f in p.breakpoints()] == [f for _, f in before]

    def test_failed_bound_check_leaves_breakpoints_unchanged(self):
        # Both windows start and end strictly inside segments, so a check
        # that ran after the edge splits would leave two new breakpoints.
        p = Profile(10)
        p.reserve(8, 0.0, 100.0)
        p.reserve(1, 20.0, 30.0)
        before = p.breakpoints()
        with pytest.raises(ProfileError, match="free count would become -3"):
            p.reserve(4, 10.0, 25.0)
        assert p.breakpoints() == before
        with pytest.raises(ProfileError, match="free count would become 12"):
            p.release(2, 60.0, 70.0)
        assert p.breakpoints() == before

    def test_over_release_rejected(self):
        p = Profile(10)
        with pytest.raises(ProfileError, match="free count"):
            p.release(1, 0.0, 10.0)

    def test_zero_procs_rejected(self):
        p = Profile(10)
        with pytest.raises(ProfileError):
            p.reserve(0, 0.0, 10.0)
        with pytest.raises(ProfileError):
            p.release(0, 0.0, 10.0)

    def test_empty_window_rejected(self):
        p = Profile(10)
        with pytest.raises(ProfileError, match="empty"):
            p.reserve(1, 10.0, 0.0)

    def test_adjacent_equal_segments_coalesce(self):
        p = Profile(10)
        p.reserve(4, 0.0, 10.0)
        p.reserve(4, 10.0, 10.0)
        # [0,20) at 6 free should be a single segment.
        assert p.breakpoints() == [(0.0, 6), (20.0, 10)]

    def test_near_coincident_edges_keep_breakpoints_sorted(self):
        # Regression: an edge landing just under tolerance-distance below
        # an existing one (here 1.0 against 1.000000001, ~1.0000001e-9
        # apart) used to be inserted *after* it — ``time + _EPS`` rounded
        # onto the existing edge while the snap test measured the true
        # distance as beyond _EPS — corrupting the sort invariant and
        # the copied free count.  Found by the claim/compose property.
        for kernel in (Profile, profile_ref.Profile):
            p = kernel(16)
            p.reserve(1, 1e-09, 1.0)
            p.reserve(1, 1.0, 1.0)
            times = [t for t, _ in p.breakpoints()]
            assert times == sorted(times)
            assert p.breakpoints() == [
                (0.0, 15),
                (1.0, 14),
                (1.000000001, 15),
                (2.0, 16),
            ]


class TestMinFree:
    def test_min_over_window(self):
        p = Profile(10)
        p.reserve(4, 10.0, 10.0)
        p.reserve(7, 30.0, 10.0)
        assert p.min_free(0.0, 100.0) == 3
        assert p.min_free(0.0, 25.0) == 6
        assert p.min_free(20.0, 5.0) == 10

    def test_zero_duration_is_point_query(self):
        p = Profile(10)
        p.reserve(4, 10.0, 10.0)
        assert p.min_free(15.0, 0.0) == 6


class TestFindStart:
    def test_empty_profile_starts_immediately(self):
        p = Profile(10)
        assert p.find_start(5, 100.0, 0.0) == 0.0

    def test_respects_earliest(self):
        p = Profile(10)
        assert p.find_start(5, 100.0, 42.0) == 42.0

    def test_waits_for_release(self):
        p = Profile(10)
        p.reserve(8, 0.0, 50.0)
        assert p.find_start(5, 10.0, 0.0) == 50.0

    def test_finds_hole_between_reservations(self):
        p = Profile(10)
        p.reserve(8, 0.0, 50.0)
        p.reserve(8, 100.0, 50.0)
        # 2 procs always free; 10-proc hole on [50, 100).
        assert p.find_start(5, 50.0, 0.0) == 50.0

    def test_hole_too_short_is_skipped(self):
        p = Profile(10)
        p.reserve(8, 0.0, 50.0)
        p.reserve(8, 100.0, 50.0)
        assert p.find_start(5, 60.0, 0.0) == 150.0

    def test_narrow_job_fits_alongside(self):
        p = Profile(10)
        p.reserve(8, 0.0, 50.0)
        assert p.find_start(2, 100.0, 0.0) == 0.0

    def test_impossible_width_rejected(self):
        p = Profile(10)
        with pytest.raises(ProfileError):
            p.find_start(11, 10.0, 0.0)

    def test_zero_duration_rejected(self):
        p = Profile(10)
        with pytest.raises(ProfileError):
            p.find_start(1, 0.0, 0.0)

    def test_result_is_feasible_and_minimal(self):
        p = Profile(10)
        p.reserve(3, 0.0, 30.0)
        p.reserve(6, 20.0, 30.0)
        p.reserve(2, 60.0, 40.0)
        start = p.find_start(5, 25.0, 0.0)
        assert p.min_free(start, 25.0) >= 5
        # No earlier anchor (breakpoint or the earliest bound) is feasible.
        for anchor, _ in p.breakpoints():
            if anchor < start:
                assert p.min_free(anchor, 25.0) < 5


class TestAdvance:
    def test_advance_drops_old_breakpoints(self):
        p = Profile(10)
        p.reserve(4, 10.0, 10.0)
        p.reserve(2, 30.0, 10.0)
        p.advance(25.0)
        assert p.origin == 25.0
        assert p.free_at(25.0) == 10
        assert p.free_at(35.0) == 8

    def test_advance_keeps_current_free_level(self):
        p = Profile(10)
        p.reserve(4, 0.0, 100.0)
        p.advance(50.0)
        assert p.free_at(50.0) == 6

    def test_advance_backwards_rejected(self):
        p = Profile(10, origin=100.0)
        with pytest.raises(ProfileError, match="backwards"):
            p.advance(50.0)

    def test_advance_to_current_origin_is_noop(self):
        p = Profile(10, origin=5.0)
        p.advance(5.0)
        assert p.origin == 5.0


class TestFromRunningJobs:
    def test_builds_from_running_jobs(self):
        p = Profile.from_running_jobs(10, 100.0, [(4, 150.0), (3, 120.0)])
        assert p.free_at(100.0) == 3
        assert p.free_at(130.0) == 6
        assert p.free_at(160.0) == 10

    def test_past_finish_occupies_epsilon_slot(self):
        p = Profile.from_running_jobs(10, 100.0, [(4, 90.0)])
        assert p.free_at(100.0) == 6
        assert p.free_at(101.0) == 10


class TestFork:
    def test_fork_is_isolated_in_both_directions(self):
        original = Profile(16)
        original.claim(6, 40.0, 0.0)
        original.reserve(3, 10.0, 50.0)
        original.advance(5.0)
        snapshot = original.breakpoints()

        copy = original.fork()
        assert copy.breakpoints() == snapshot
        assert copy.total_procs == 16 and copy.origin == 5.0

        copy.claim(10, 20.0, 5.0)
        copy.reserve(1, 7.0, 3.0)
        copy.advance(30.0)
        assert original.breakpoints() == snapshot

        forked_state = copy.breakpoints()
        original.claim_many([4, 4], [15.0, 25.0], 5.0)
        original.release(3, 10.0, 50.0)
        original.advance(12.0)
        assert copy.breakpoints() == forked_state
        assert original.breakpoints() != snapshot


class TestInputHygiene:
    """numpy scalars from ``JobTable`` columns must not enter the lists."""

    @staticmethod
    def _drive(profile_at, integer, real):
        p = profile_at(real(2.0))
        starts = [p.claim(integer(4), real(30.0), real(1.0))]
        starts += p.claim_many(
            [integer(8), integer(3)], [real(12.5), real(40.0)], real(2.0)
        )
        starts.append(p.find_start(integer(16), real(5.0), real(3.0)))
        p.reserve(integer(2), real(50.0), real(10.0))
        p.release(integer(2), real(50.0), real(4.0))
        p.advance(real(6.0))
        states = [p.breakpoints()]
        p.rebuild_into(real(9.0), [(integer(5), real(20.0)), (integer(2), real(8.0))])
        starts += p.claim_many(np.array([3, 9]), np.array([7.0, 2.0]), real(9.0))
        states.append(p.breakpoints())
        return starts, states

    def test_numpy_scalars_behave_like_builtins_and_are_coerced(self):
        plain = self._drive(lambda origin: Profile(16, origin=origin), int, float)
        boxed = self._drive(
            lambda origin: Profile(np.int64(16), origin=origin), np.int64, np.float64
        )
        assert boxed == plain
        starts, states = boxed
        assert all(type(start) is float for start in starts)
        for state in states:
            assert all(type(t) is float and type(f) is int for t, f in state)
