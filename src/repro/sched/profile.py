"""Processor-availability profile: free processors as a step function of time.

This is the "2D chart" of the paper's Section 2: time on one axis,
processors on the other, each running job or reservation occupying a
rectangle.  The profile stores the *free-processor* step function as a
sorted list of breakpoints ``(time, free)``, where ``free`` holds on
``[time_i, time_{i+1})`` and the final breakpoint extends to infinity.

Operations:

* :meth:`find_start` — earliest time a ``procs x duration`` rectangle fits
  (the core primitive of every backfilling scheduler);
* :meth:`claim` / :meth:`claim_many` — find the earliest fit and reserve
  it, for one job or for a whole repack batch;
* :meth:`reserve` / :meth:`release` — carve a rectangle out of / back into
  the free function;
* :meth:`advance` — garbage-collect breakpoints behind the simulation clock;
* :meth:`rebuild_into` — reset and bulk-load a running set in one endpoint
  sweep (the repack fast path).

All mutations validate that free counts stay within ``[0, total_procs]``,
so double-reservations and mismatched releases fail fast
(:class:`~repro.errors.ProfileError`).

Performance contract (see DESIGN.md section 7): breakpoints live in two
parallel Python lists searched with :mod:`bisect`; the earliest-fit sweep
is a plain loop that stops as soon as the window is covered, and edits
are ``list.insert`` / ``del``.  The profiles the simulator builds are
short (over 90 % of claims see fewer than 50 breakpoints), where the
fixed cost of each array operation exceeds the work it vectorises: a
numpy kernel measured slower at every batch size from 5 to 5,000 jobs
and was replaced.  The lists are kept *coalesced* (no two adjacent
segments share a free count) as a strict invariant; because a
reservation adds one delta to a contiguous run of segments, only the two
window edges can ever newly violate it, so mutations repair locally in
O(1) instead of re-scanning.  Values are coerced to ``int`` / ``float``
where they enter the lists, so numpy scalars never do.  The slow
pre-optimization implementation is frozen verbatim in
``tests/oracles/profile_ref.py``; every optimization here is gated on
byte-identical schedules against it
(``tests/properties/test_prop_kernel_equivalence.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable

from repro.errors import ProfileError
from repro.sched.tol import EPS_DUE, EPS_SNAP as _EPS

__all__ = ["Profile"]


class Profile:
    """Free-processor step function over ``[origin, +inf)``."""

    __slots__ = ("total_procs", "_times", "_free")

    def __init__(self, total_procs: int, origin: float = 0.0) -> None:
        if total_procs <= 0:
            raise ProfileError(f"profile needs > 0 processors, got {total_procs}")
        if not math.isfinite(origin):
            raise ProfileError(f"profile origin must be finite, got {origin}")
        self.total_procs = int(total_procs)
        # Parallel lists: breakpoint times and the free count from each
        # breakpoint until the next.  Invariants: times strictly increasing
        # (pairwise more than _EPS apart), times[0] is the origin,
        # 0 <= free <= total_procs, and no two adjacent free counts are
        # equal (coalesced).
        self._times: list[float] = [float(origin)]
        self._free: list[int] = [self.total_procs]

    # -- queries --------------------------------------------------------------

    @property
    def origin(self) -> float:
        """Left edge of the profile (the current simulation clock)."""
        return self._times[0]

    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (must be >= origin)."""
        times = self._times
        if time < times[0] - _EPS:
            raise ProfileError(f"query at {time} precedes profile origin {times[0]}")
        return self._free[max(bisect_right(times, time + _EPS) - 1, 0)]

    def min_free(self, start: float, duration: float) -> int:
        """Minimum free processors over the window ``[start, start+duration)``."""
        if duration <= 0:
            return self.free_at(start)
        times = self._times
        first = max(bisect_right(times, start + _EPS) - 1, 0)
        stop = bisect_left(times, start + duration - _EPS)
        if stop <= first:
            return self.total_procs
        return min(self._free[first:stop])

    def breakpoints(self) -> list[tuple[float, int]]:
        """Copy of the step function as ``(time, free)`` pairs."""
        return list(zip(self._times, self._free))

    # -- core primitive ----------------------------------------------------------

    def _check(self, procs, duration) -> None:
        """Reject a rectangle no profile of this width can ever place."""
        if procs <= 0 or procs > self.total_procs:
            raise ProfileError(
                f"cannot place {procs} procs on a {self.total_procs}-proc profile"
            )
        if duration <= 0:
            raise ProfileError(f"duration must be > 0, got {duration}")

    def _anchor(self, earliest: float) -> tuple[float, int]:
        """Clamp ``earliest`` to the origin; locate the segment containing it.

        Exact ``bisect_right``, NOT the +_EPS-fudged one the other queries
        use: with the fudge, a breakpoint in ``(earliest, earliest +
        _EPS]`` makes the sweep skip the segment that actually contains
        ``earliest`` — and if that segment is feasible, the job is delayed
        past a start the profile can support.  The exact form never
        anchors inside an infeasible sliver either: run starts stay
        clamped to segments whose free count was checked.  (The anchor is
        ``>= times[0]`` after the clamp, so the index is ``>= 0``.)
        """
        times = self._times
        base = float(earliest)
        if base < times[0]:
            base = times[0]
        return base, bisect_right(times, base) - 1

    def _sweep(self, procs, duration, base: float, index: int) -> tuple[float, int]:
        """The earliest-fit sweep, from ``base`` inside segment ``index``.

        Candidate anchors are ``base`` itself and every later breakpoint
        (free counts only change at breakpoints, so the optimum is always
        one of these).  Walks the maximal feasible runs left to right and
        leaves a run as soon as a breakpoint lies at or past the window's
        end — the run's blocker can only be later still.  A run with no
        blocker reaches the final, infinite segment, so any rectangle with
        ``procs <= total`` fits once all reservations end — unless the
        tail itself is over-reserved, which is a usage bug.

        Returns ``(start, first)``: the index of the breakpoint the window
        starts at, or -1 when it starts at ``base`` itself (the run
        containing ``base`` is not anchored at a breakpoint).
        """
        times = self._times
        free = self._free
        n = len(times)
        i = index
        while True:
            while free[i] < procs:
                i += 1
                if i == n:
                    raise ProfileError(
                        f"no feasible start for {procs} procs x {duration}s — "
                        "the profile's tail is over-reserved"
                    )
            # Later runs begin strictly after ``base`` (their first segment
            # starts at a breakpoint past ``index``), so no clamping needed.
            begin = base if i == index else times[i]
            covered = begin + duration - _EPS
            m = i + 1
            while m < n and times[m] < covered:
                if free[m] < procs:
                    break
                m += 1
            else:
                return begin, (-1 if i == index else i)
            i = m  # the blocker: the skip loop above moves past it

    def _place(self, procs, duration, base: float, index: int) -> tuple[float, int]:
        """Sweep, then reserve the winning window: the one placement step.

        Exactly the state of :meth:`find_start` + :meth:`reserve`, in one
        pass: the sweep already proves every segment in the winning window
        holds ``procs`` free, so the reserve-side validation is redundant,
        and the window's start breakpoint is known from the sweep — the
        breakpoint the run began at (breakpoints are pairwise > _EPS
        apart, so the tolerance search could only ever find that one), or
        ``base`` resolved against the two edges of its enclosing segment,
        the only candidates within tolerance.

        Returns ``(start, index)``, ``index`` again the segment containing
        ``base``: only the split at ``base`` and the coalescing delete that
        can later remove that breakpoint move it, so :meth:`claim_many`
        carries it from job to job instead of searching again.
        """
        begin, first = self._sweep(procs, duration, base, index)
        times = self._times
        free = self._free
        if first < 0:
            first = self._ensure_breakpoint(begin)
            if times[first] == begin:
                index = first  # the anchor segment now starts at ``base``
        # The end edge, by _ensure_breakpoint's rules written out (the call
        # costs ~10 % of a deep-queue cell): ``times[last] >= end >
        # times[last - 1]``, so neither snap needs ``abs`` and ``last >= 1``.
        end = begin + duration
        last = bisect_left(times, end)
        if last == len(times) or times[last] - end > _EPS:
            if end - times[last - 1] <= _EPS:
                last -= 1
            else:
                times.insert(last, end)
                free.insert(last, free[last - 1])
        for k in range(first, last):
            free[k] -= procs
        # Two-edge coalesce, as in _apply.
        if free[last] == free[last - 1]:
            del times[last], free[last]
        if first > 0 and free[first] == free[first - 1]:
            del times[first], free[first]
            if first == index:
                index -= 1  # the breakpoint at ``base`` went: back one segment
        return begin, index

    def find_start(self, procs: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``procs`` free over ``[t, t+duration)``.

        One :meth:`_sweep` from the segment containing ``earliest``:
        O(breakpoints) at worst, returning at the first covered window.
        """
        self._check(procs, duration)
        return self._sweep(procs, duration, *self._anchor(earliest))[0]

    def claim(self, procs: int, duration: float, earliest: float) -> float:
        """Fused :meth:`find_start` + :meth:`reserve`; returns the start.

        Exactly the state and return value of the two-call sequence, in
        one :meth:`_place` — the arrival path of every reservation discipline.
        """
        self._check(procs, duration)
        return self._place(int(procs), float(duration), *self._anchor(earliest))[0]

    # -- batch primitives --------------------------------------------------------

    def claim_many(self, procs, durations, earliest: float) -> list[float]:
        """Sequential :meth:`claim` for many jobs, batched.

        State- and value-identical to ``[self.claim(p, d, earliest) for
        p, d in ...]`` — the repack loop of every reservation discipline —
        but with the per-call overhead amortized across the batch:

        * argument validation runs once up front over the whole batch (so
          invalid input fails fast with the profile untouched, instead of
          after the preceding claims applied);
        * the segment containing ``earliest`` is located once and then
          maintained *incrementally* by :meth:`_place`, so the per-claim
          search for the anchor is gone.

        The loop calls the private :meth:`_place`, never the public
        :meth:`claim`: whoever wraps or counts ``claim`` sees one batch.

        A 2D precompute-then-recheck scheme (sweep the chunk's starts up
        front, commit each after an exactness recheck) was tried first and
        *loses* on the deep-queue repacks this call exists for: consecutive
        FCFS claims compete for the same holes, so >95% of precomputed
        starts go stale after the first commit and every job pays the
        recheck on top of a full scalar claim (see DESIGN.md section 14).
        The batch win on contended profiles comes from stripping the
        sequential loop, not from precomputing against a profile that is
        about to change.
        """
        plist = [int(p) for p in procs]
        dlist = [float(d) for d in durations]
        if not plist:
            return []
        # Same checks and messages as the scalar claim, via C-speed min/max.
        if min(plist) <= 0 or max(plist) > self.total_procs:
            bad = next(p for p in plist if p <= 0 or p > self.total_procs)
            raise ProfileError(
                f"cannot place {bad} procs on a {self.total_procs}-proc profile"
            )
        if min(dlist) <= 0:
            bad = next(d for d in dlist if d <= 0)
            raise ProfileError(f"duration must be > 0, got {bad}")
        base, index = self._anchor(earliest)
        out: list[float] = []
        for p, d in zip(plist, dlist):
            begin, index = self._place(p, d, base, index)
            out.append(begin)
        return out

    def min_free_many(self, durations, start: float) -> list[int]:
        """:meth:`min_free` from a common ``start`` for many durations.

        One running minimum over the free list answers every window at
        once: ``min_free(start, d)`` is the cumulative minimum at the last
        segment the window overlaps, found with one ``bisect`` per
        duration.  Durations must be positive (the scalar method's
        ``duration <= 0`` point-query special case is not replicated).
        """
        dlist = [float(d) for d in durations]
        if not dlist:
            return []
        if min(dlist) <= 0:
            bad = next(d for d in dlist if d <= 0)
            raise ProfileError(f"duration must be > 0, got {bad}")
        times = self._times
        first = max(bisect_right(times, start + _EPS) - 1, 0)
        stops = [bisect_left(times, start + d - _EPS) for d in dlist]
        running_min = list(accumulate(self._free[first : max(stops)], min))
        return [
            running_min[stop - first - 1] if stop > first else self.total_procs
            for stop in stops
        ]

    # -- mutations ------------------------------------------------------------------

    def _ensure_breakpoint(self, time: float) -> int:
        """Make ``time`` a breakpoint (splitting a segment) and return its index.

        Exact search plus a two-sided tolerance snap.  Locating the
        candidate via ``bisect_right(time + _EPS)`` is wrong here:
        ``time + _EPS`` can round up onto an edge whose true distance
        from ``time`` exceeds ``_EPS``, so the snap test rejects it yet
        the insertion index lands *past* that edge — an out-of-order
        corruption of the breakpoint list.
        """
        times = self._times
        pos = bisect_left(times, time)
        if pos < len(times) and abs(times[pos] - time) <= _EPS:
            return pos
        if pos > 0 and abs(times[pos - 1] - time) <= _EPS:
            return pos - 1
        if time < times[0] - _EPS:
            raise ProfileError(f"breakpoint {time} precedes profile origin {times[0]}")
        times.insert(pos, time)
        self._free.insert(pos, self._free[max(pos - 1, 0)])
        return pos

    def _apply(self, delta: int, start: float, end: float) -> None:
        if end <= start + _EPS:
            raise ProfileError(f"empty reservation window [{start}, {end})")
        # Validate against the existing segments BEFORE touching the
        # representation, so a failed apply leaves the profile bit-identical.
        # Only one bound can be violated per sign of delta: a reserve
        # (delta < 0) can only underflow the window minimum, a release only
        # overflow the maximum — so one min or max over the window suffices.
        times = self._times
        free = self._free
        first_seg = max(bisect_right(times, start + _EPS) - 1, 0)
        stop = bisect_left(times, end - _EPS)
        if stop > first_seg:
            window = free[first_seg:stop]
            worst = (min(window) if delta < 0 else max(window)) + delta
            if worst < 0 or worst > self.total_procs:
                raise ProfileError(
                    f"free count would become {worst} (valid range "
                    f"[0, {self.total_procs}]) on [{start}, {end})"
                )
        first = self._ensure_breakpoint(start)
        last = self._ensure_breakpoint(end)
        for k in range(first, last):
            free[k] += delta
        # Localized coalescing: every interior adjacent pair moved by the
        # same delta, so (by the coalesced invariant) it stays unequal; only
        # the two window edges can merge.  Repair ``last`` first so
        # ``first``'s index is still valid.
        if free[last] == free[last - 1]:
            del times[last], free[last]
        if first > 0 and free[first] == free[first - 1]:
            del times[first], free[first]

    def reserve(self, procs: int, start: float, duration: float) -> None:
        """Subtract ``procs`` from the free function on ``[start, start+duration)``."""
        if procs <= 0:
            raise ProfileError(f"reserve needs procs > 0, got {procs}")
        start = float(start)
        self._apply(-int(procs), start, start + float(duration))

    def release(self, procs: int, start: float, duration: float) -> None:
        """Add ``procs`` back on ``[start, start+duration)`` (undo a reserve)."""
        if procs <= 0:
            raise ProfileError(f"release needs procs > 0, got {procs}")
        start = float(start)
        self._apply(int(procs), start, start + float(duration))

    def advance(self, time: float) -> None:
        """Move the origin forward to ``time``, dropping stale breakpoints.

        The free count in force at ``time`` becomes the new first segment.
        No coalescing is needed: surviving adjacent pairs were adjacent
        (and hence unequal) before the prefix was dropped.
        """
        times = self._times
        time = float(time)
        if time < times[0] - _EPS:
            raise ProfileError(f"cannot advance profile backwards ({times[0]} -> {time})")
        index = bisect_right(times, time + _EPS) - 1
        if index <= 0:
            if abs(times[0] - time) > _EPS and time > times[0]:
                times[0] = time
            return
        del times[:index], self._free[:index]
        times[0] = time

    def fork(self) -> "Profile":
        """Independent copy for scheduler checkpointing.

        Two ``list.copy()`` calls: no re-validation, no per-segment loop.
        """
        dup = Profile.__new__(Profile)
        dup.total_procs = self.total_procs
        dup._times = self._times.copy()
        dup._free = self._free.copy()
        return dup

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def from_running_jobs(
        cls, total_procs: int, now: float, running: Iterable[tuple[int, float]]
    ) -> "Profile":
        """Build a profile from ``(procs, estimated_finish)`` of running jobs.

        Jobs whose estimated finish has already passed (defensive: cannot
        happen while runtimes are capped at estimates) occupy a
        microsecond-length slot so the present instant still shows them
        busy.  Delegates to :meth:`rebuild_into` — one O(R log R) endpoint
        sweep rather than R sequential reserve+coalesce passes.
        """
        profile = cls(total_procs, origin=now)
        profile.rebuild_into(now, running)
        return profile

    def rebuild_into(self, now: float, running: Iterable[tuple[int, float]]) -> None:
        """Reset to origin ``now`` and bulk-load ``running`` occupancy in place.

        Repacking schedulers (conservative's ``repack`` compression, depth,
        selective, slack) rebuild their plan every event on the one profile
        they hold.  All running jobs occupy ``[now, horizon_i)``, so the
        free function is ``total - sum(procs of jobs with horizon > t)``:
        one sort of the horizons and a single sweep accumulating releases
        yields the exact step function sequential reserves would build.
        The sweep fills fresh lists that replace the old ones only at the
        end, so rejected input leaves the profile untouched.
        """
        if not math.isfinite(now):
            raise ProfileError(f"profile origin must be finite, got {now}")
        now = float(now)
        floor = now + EPS_DUE
        horizons: list[tuple[float, int]] = []
        busy = 0
        for procs, finish in running:
            if procs <= 0:
                raise ProfileError(f"reserve needs procs > 0, got {procs}")
            procs = int(procs)
            busy += procs
            horizons.append((float(finish) if finish > floor else floor, procs))
        if busy > self.total_procs:
            raise ProfileError(
                f"free count would become {self.total_procs - busy} (valid "
                f"range [0, {self.total_procs}]) on [{now}, ...)"
            )
        horizons.sort()
        level = self.total_procs - busy
        times = [now]
        free = [level]
        for horizon, procs in horizons:
            level += procs
            if horizon - times[-1] <= _EPS:
                # Endpoint merges with the previous breakpoint exactly the
                # way _ensure_breakpoint's tolerance would.
                free[-1] = level
            else:
                times.append(horizon)
                free.append(level)
        self._times = times
        self._free = free

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        steps = ", ".join(f"{t:.6g}:{f}" for t, f in zip(self._times, self._free))
        return f"Profile(total={self.total_procs}, steps=[{steps}])"
