"""Processor-availability profile: free processors as a step function of time.

This is the "2D chart" of the paper's Section 2: time on one axis,
processors on the other, each running job or reservation occupying a
rectangle.  The profile stores the *free-processor* step function as a
sorted list of breakpoints ``(time, free)``, where ``free`` holds on
``[time_i, time_{i+1})`` and the final breakpoint extends to infinity.

Operations:

* :meth:`find_start` — earliest time a ``procs x duration`` rectangle fits
  (the core primitive of every backfilling scheduler);
* :meth:`reserve` / :meth:`release` — carve a rectangle out of / back into
  the free function;
* :meth:`advance` — garbage-collect breakpoints behind the simulation clock;
* :meth:`rebuild_into` — reset and bulk-load a running set in one endpoint
  sweep, reusing the existing arrays (the repack fast path).

All mutations validate that free counts stay within ``[0, total_procs]``,
so double-reservations and mismatched releases fail fast
(:class:`~repro.errors.ProfileError`).

Performance contract (see DESIGN.md "Performance"): breakpoints live in
capacity-managed numpy arrays so the kernel's inner loops — the
feasibility sweep of :meth:`find_start`, the window validation and delta
application of :meth:`_apply`, the window minimum of :meth:`min_free` —
run vectorized instead of one Python iteration per segment.  The arrays
are kept *coalesced* (no two adjacent segments share a free count) as a
strict invariant; because :meth:`_apply` adds one delta to a contiguous
run of segments, only the two window edges can ever newly violate it, so
mutations repair locally in O(1) instead of re-scanning.  The slow
pre-optimization implementation is frozen verbatim in
``tests/oracles/profile_ref.py``; every optimization here is gated on
byte-identical schedules against it
(``tests/properties/test_prop_kernel_equivalence.py``).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.errors import ProfileError

__all__ = ["Profile"]

#: Tolerance for comparing reservation timestamps.
_EPS = 1e-9


class Profile:
    """Free-processor step function over ``[origin, +inf)``."""

    __slots__ = ("total_procs", "_times", "_free", "_n")

    #: Initial breakpoint capacity; doubled on demand.
    _INIT_CAPACITY = 64

    def __init__(self, total_procs: int, origin: float = 0.0) -> None:
        if total_procs <= 0:
            raise ProfileError(f"profile needs > 0 processors, got {total_procs}")
        if not math.isfinite(origin):
            raise ProfileError(f"profile origin must be finite, got {origin}")
        self.total_procs = total_procs
        # Capacity-managed parallel arrays: breakpoint times and the free
        # count from each breakpoint until the next; only the first ``_n``
        # entries are live.  Invariants: times strictly increasing,
        # times[0] is the origin, 0 <= free <= total_procs, and no two
        # adjacent free counts are equal (coalesced).
        self._times = np.empty(self._INIT_CAPACITY, dtype=np.float64)
        self._free = np.empty(self._INIT_CAPACITY, dtype=np.int64)
        self._times[0] = origin
        self._free[0] = total_procs
        self._n = 1

    # -- storage management ---------------------------------------------------

    def _reserve_capacity(self, need: int) -> None:
        """Grow the backing arrays to hold at least ``need`` breakpoints."""
        capacity = len(self._times)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        times = np.empty(capacity, dtype=np.float64)
        free = np.empty(capacity, dtype=np.int64)
        times[: self._n] = self._times[: self._n]
        free[: self._n] = self._free[: self._n]
        self._times = times
        self._free = free

    def _insert(self, index: int, time: float, count: int) -> None:
        """Insert a breakpoint at ``index`` (C-speed shift, no Python loop)."""
        n = self._n
        self._reserve_capacity(n + 1)
        # numpy guarantees overlapping slice assignment copies-then-writes.
        self._times[index + 1 : n + 1] = self._times[index:n]
        self._free[index + 1 : n + 1] = self._free[index:n]
        self._times[index] = time
        self._free[index] = count
        self._n = n + 1

    def _delete(self, index: int) -> None:
        """Drop the breakpoint at ``index`` (segment merges into its left)."""
        n = self._n
        self._times[index : n - 1] = self._times[index + 1 : n]
        self._free[index : n - 1] = self._free[index + 1 : n]
        self._n = n - 1

    # -- queries --------------------------------------------------------------

    @property
    def origin(self) -> float:
        """Left edge of the profile (the current simulation clock)."""
        return float(self._times[0])

    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (must be >= origin)."""
        times = self._times[: self._n]
        if time < times[0] - _EPS:
            raise ProfileError(
                f"query at {time} precedes profile origin {times[0]}"
            )
        index = int(times.searchsorted(time + _EPS, side="right")) - 1
        return int(self._free[max(index, 0)])

    def min_free(self, start: float, duration: float) -> int:
        """Minimum free processors over the window ``[start, start+duration)``."""
        if duration <= 0:
            return self.free_at(start)
        end = start + duration
        times = self._times[: self._n]
        first = max(int(times.searchsorted(start + _EPS, side="right")) - 1, 0)
        stop = int(times.searchsorted(end - _EPS, side="left"))
        if stop <= first:
            return self.total_procs
        return int(self._free[first:stop].min())

    def breakpoints(self) -> list[tuple[float, int]]:
        """Copy of the step function as ``(time, free)`` pairs."""
        return list(
            zip(self._times[: self._n].tolist(), self._free[: self._n].tolist())
        )

    # -- core primitive ----------------------------------------------------------

    def find_start(self, procs: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``procs`` free over ``[t, t+duration)``.

        Candidate anchors are ``earliest`` itself and every later breakpoint
        (free counts only change at breakpoints, so the optimum is always one
        of these).  The feasibility mask and its run boundaries are computed
        vectorized, then each maximal feasible run is checked for covering
        ``duration`` — O(breakpoints) total work with numpy constants (this
        is the inner loop of every reservation-based scheduler).  Always
        succeeds: the profile ends in a final infinite segment, so any
        rectangle with ``procs <= total`` fits once all reservations end —
        unless the tail itself is over-reserved, which is a usage bug.
        """
        if procs <= 0 or procs > self.total_procs:
            raise ProfileError(
                f"cannot place {procs} procs on a {self.total_procs}-proc profile"
            )
        if duration <= 0:
            raise ProfileError(f"duration must be > 0, got {duration}")
        n = self._n
        times = self._times[:n]
        if earliest < times[0]:
            earliest = float(times[0])

        # Exact searchsorted, NOT the +_EPS-fudged one the other queries
        # use: with the fudge, a breakpoint in ``(earliest, earliest +
        # _EPS]`` makes the sweep skip the segment that actually contains
        # ``earliest`` — and if that segment is feasible, the job is
        # delayed past a start the profile can support.  The exact form
        # never anchors inside an infeasible sliver either: run starts stay
        # clamped to segments whose free count was checked.  (``earliest >=
        # times[0]`` after the clamp above, so ``index >= 0``.)
        index = int(times.searchsorted(earliest, side="right")) - 1
        feasible = self._free[index:n] >= procs

        # Maximal feasible runs, via the flip positions of the mask (direct
        # ndarray methods only — this is the hottest loop in the kernel and
        # numpy's module-level wrappers cost more than the work itself).
        # ``flips[k]`` is the first relative segment whose feasibility
        # differs from its predecessor; runs of True therefore start at
        # alternating flips (offset by whether segment 0 is feasible) and
        # end at the next flip.  A run with no closing flip reaches the
        # final segment and extends to infinity, so it always covers.
        flips = (feasible[1:] != feasible[:-1]).nonzero()[0] + 1
        if feasible[0]:
            # The run containing ``earliest`` is anchored at ``earliest``
            # itself, not at a breakpoint.
            if flips.size == 0:
                return earliest
            if float(times[index + int(flips[0])]) >= earliest + duration - _EPS:
                return earliest
            starts = flips[1::2]
            ends = flips[2::2]
        else:
            starts = flips[0::2]
            ends = flips[1::2]
        # Later runs begin strictly after ``earliest`` (their first segment
        # starts at times[index + s] with s >= 1), so no clamping needed.
        slist = starts.tolist()
        elist = ends.tolist()
        for k in range(len(elist)):
            begin = float(times[index + slist[k]])
            if float(times[index + elist[k]]) >= begin + duration - _EPS:
                return begin
        if len(slist) > len(elist):
            return float(times[index + slist[-1]])
        raise ProfileError(
            f"no feasible start for {procs} procs x {duration}s — "
            "the profile's tail is over-reserved"
        )

    def claim(self, procs: int, duration: float, earliest: float) -> float:
        """Fused :meth:`find_start` + :meth:`reserve`; returns the start.

        Produces exactly the state and return value of the two-call
        sequence, but in one pass: the feasibility sweep already proves
        every segment in the winning window holds ``procs`` free, so the
        reserve-side validation is redundant, and the window's start
        breakpoint is known from the sweep (either a breakpoint the run
        began at, or ``earliest`` resolved against its enclosing segment
        with :meth:`_ensure_breakpoint`'s exact tolerance rules).  This is
        the per-job placement step of every reservation repack loop —
        the single hottest call in the kernel.
        """
        if procs <= 0 or procs > self.total_procs:
            raise ProfileError(
                f"cannot place {procs} procs on a {self.total_procs}-proc profile"
            )
        if duration <= 0:
            raise ProfileError(f"duration must be > 0, got {duration}")
        n = self._n
        times = self._times[:n]
        if earliest < times[0]:
            earliest = float(times[0])
        index = int(times.searchsorted(earliest, side="right")) - 1
        feasible = self._free[index:n] >= procs
        flips = (feasible[1:] != feasible[:-1]).nonzero()[0].tolist()

        # Locate the winning run (same sweep as find_start; flip k sits at
        # absolute breakpoint ``index + flips[k] + 1``).  ``bp`` is the
        # absolute breakpoint index the window starts at, or -1 when the
        # window is anchored at ``earliest`` inside its segment.
        begin = 0.0
        bp = -2  # not yet found
        if feasible[0]:
            if not flips or float(
                times[index + 1 + flips[0]]
            ) >= earliest + duration - _EPS:
                begin = earliest
                bp = -1
            starts = flips[1::2]
            ends = flips[2::2]
        else:
            starts = flips[0::2]
            ends = flips[1::2]
        if bp == -2:
            for k in range(len(ends)):
                s = index + 1 + starts[k]
                anchor = float(times[s])
                if float(times[index + 1 + ends[k]]) >= anchor + duration - _EPS:
                    begin = anchor
                    bp = s
                    break
            else:
                if len(starts) > len(ends):
                    s = index + 1 + starts[-1]
                    begin = float(times[s])  # final run: infinite tail
                    bp = s
                else:
                    raise ProfileError(
                        f"no feasible start for {procs} procs x {duration}s — "
                        "the profile's tail is over-reserved"
                    )

        # Apply the reservation without re-validating.  Resolve the start
        # breakpoint scalar-wise: breakpoints are pairwise > _EPS apart, so
        # when the run begins at breakpoint ``bp`` the tolerance search
        # could only ever find ``bp`` itself; when it begins at
        # ``earliest``, the enclosing segment's edges are the only
        # candidates within tolerance.
        if bp >= 0:
            first = bp
        else:
            nxt = index + 1
            if nxt < n and float(times[nxt]) - begin <= _EPS:
                first = nxt
            elif begin - float(times[index]) <= _EPS:
                first = index
            else:
                self._insert(index + 1, begin, int(self._free[index]))
                first = index + 1
        last = self._ensure_breakpoint(begin + duration)
        self._free[first:last] -= procs
        if self._free[last] == self._free[last - 1]:
            self._delete(last)
        if first > 0 and self._free[first] == self._free[first - 1]:
            self._delete(first)
        return begin

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
          maintained *incrementally* — the only mutation that can move it
          is this loop's own insert-at-``earliest`` (and the coalescing
          delete that can later remove that breakpoint), both of which
          are visible at the call site, so the per-claim ``searchsorted``
          over the anchor is gone;
        * the ``_insert``/``_delete``/``_ensure_breakpoint`` helpers are
          inlined with the backing arrays and live length hoisted into
          locals, eliminating a half-dozen method calls and attribute
          loads per job.

        A 2D precompute-then-recheck scheme (sweep the chunk's starts up
        front, commit each after an exactness recheck) was tried first and *loses* on the deep-queue repacks
        this call exists for: consecutive FCFS claims compete for the same
        holes, so >95% of precomputed starts go stale after the first
        commit and every job pays the recheck on top of a full scalar
        claim (see DESIGN.md section 14).  The batch win on contended
        profiles comes from stripping the sequential loop, not from
        precomputing against a profile that is about to change.
        """
        plist = [int(p) for p in procs]
        dlist = [float(d) for d in durations]
        total = len(plist)
        if total == 0:
            return []
        # Same checks and messages as the scalar claim, batched via
        # C-speed min/max instead of a numpy round-trip.
        if min(plist) <= 0 or max(plist) > self.total_procs:
            bad = next(
                p for p in plist if p <= 0 or p > self.total_procs
            )
            raise ProfileError(
                f"cannot place {bad} procs on a {self.total_procs}-proc profile"
            )
        if min(dlist) <= 0:
            bad = next(d for d in dlist if d <= 0)
            raise ProfileError(f"duration must be > 0, got {bad}")
        out: list[float] = []
        append = out.append

        times_arr = self._times
        free_arr = self._free
        n = self._n
        t0 = float(times_arr[0])
        base = earliest if earliest > t0 else t0
        # Segment containing ``base`` (== claim's per-call searchsorted).
        index = int(times_arr[:n].searchsorted(base, side="right")) - 1

        for j in range(total):
            p = plist[j]
            d = dlist[j]

            # -- find (claim's sweep, via C-speed byte scans) --------------
            # The feasibility mask is materialized once as raw bytes and
            # the maximal feasible runs are walked with ``bytes.find``
            # (memchr): enumerating runs this way visits exactly the flip
            # positions claim's ``nonzero`` sweep produces, but the winner
            # is usually found after two or three probes instead of
            # materializing every flip.
            buf = (free_arr[index:n] >= p).tobytes()
            find = buf.find
            begin = 0.0
            bp = -2  # not yet found
            cursor = 0
            if buf[0]:
                blocker = find(0, 1)
                if blocker < 0 or times_arr[index + blocker] >= base + d - _EPS:
                    begin = base
                    bp = -1
                else:
                    cursor = blocker + 1
            while bp == -2:
                s = find(1, cursor)
                if s < 0:
                    self._n = n
                    raise ProfileError(
                        f"no feasible start for {p} procs x {d}s — "
                        "the profile's tail is over-reserved"
                    )
                blocker = find(0, s + 1)
                anchor = float(times_arr[index + s])
                if blocker < 0 or times_arr[index + blocker] >= anchor + d - _EPS:
                    begin = anchor  # final run extends to the infinite tail
                    bp = index + s
                else:
                    cursor = blocker + 1

            # -- apply (claim's tail, helpers inlined) ---------------------
            if bp >= 0:
                first = bp
            else:
                nxt = index + 1
                if nxt < n and float(times_arr[nxt]) - begin <= _EPS:
                    first = nxt
                elif begin - float(times_arr[index]) <= _EPS:
                    first = index
                else:
                    # insert breakpoint ``begin`` (== base) at index + 1
                    if n + 1 > len(times_arr):
                        self._n = n
                        self._reserve_capacity(n + 1)
                        times_arr = self._times
                        free_arr = self._free
                    pos = index + 1
                    times_arr[pos + 1 : n + 1] = times_arr[pos:n]
                    free_arr[pos + 1 : n + 1] = free_arr[pos:n]
                    times_arr[pos] = begin
                    free_arr[pos] = free_arr[index]
                    n += 1
                    first = pos
                    index = pos  # the anchor segment now starts at ``base``

            end = begin + d
            # Deep-queue claims stack at the far end of the profile, so the
            # end edge very often lands beyond every breakpoint — a scalar
            # compare against the last one skips the binary search.
            if end - float(times_arr[n - 1]) > _EPS:
                pos = n
            else:
                pos = int(times_arr[:n].searchsorted(end, side="left"))
            if pos < n and abs(float(times_arr[pos]) - end) <= _EPS:
                last = pos
            elif pos > 0 and abs(float(times_arr[pos - 1]) - end) <= _EPS:
                last = pos - 1
            else:
                # insert breakpoint ``end`` at pos (pos >= 1: end > base >= t0)
                if n + 1 > len(times_arr):
                    self._n = n
                    self._reserve_capacity(n + 1)
                    times_arr = self._times
                    free_arr = self._free
                times_arr[pos + 1 : n + 1] = times_arr[pos:n]
                free_arr[pos + 1 : n + 1] = free_arr[pos:n]
                times_arr[pos] = end
                free_arr[pos] = free_arr[pos - 1]
                n += 1
                last = pos

            if last == first + 1:
                free_arr[first] -= p
            else:
                free_arr[first:last] -= p
            if free_arr[last] == free_arr[last - 1]:
                times_arr[last : n - 1] = times_arr[last + 1 : n]
                free_arr[last : n - 1] = free_arr[last + 1 : n]
                n -= 1
            if first > 0 and free_arr[first] == free_arr[first - 1]:
                times_arr[first : n - 1] = times_arr[first + 1 : n]
                free_arr[first : n - 1] = free_arr[first + 1 : n]
                n -= 1
                if first == index:
                    # The coalesce removed the breakpoint at ``base`` that
                    # an earlier iteration inserted; the anchor segment
                    # reverts to the one preceding it.
                    index -= 1

            append(begin)

        self._n = n
        return out

    def min_free_many(self, durations, start: float) -> list[int]:
        """:meth:`min_free` from a common ``start`` for many durations.

        One running minimum over the free array answers every window at
        once: ``min_free(start, d)`` is the cumulative minimum at the last
        segment the window overlaps.  Durations must be positive (the
        scalar method's ``duration <= 0`` point-query special case is not
        replicated).
        """
        durations = np.ascontiguousarray(durations, dtype=np.float64)
        if durations.shape[0] == 0:
            return []
        if (durations <= 0).any():
            bad = float(durations[durations <= 0][0])
            raise ProfileError(f"duration must be > 0, got {bad}")
        n = self._n
        times = self._times[:n]
        first = max(int(times.searchsorted(start + _EPS, side="right")) - 1, 0)
        stops = times.searchsorted(start + durations - _EPS, side="left")
        running_min = np.minimum.accumulate(self._free[first:n])
        result = np.where(
            stops <= first,
            self.total_procs,
            running_min[np.maximum(stops - first - 1, 0)],
        )
        return result.tolist()

    # -- mutations ------------------------------------------------------------------

    def _ensure_breakpoint(self, time: float) -> int:
        """Make ``time`` a breakpoint (splitting a segment) and return its index.

        Exact search plus a two-sided tolerance snap.  Locating the
        candidate via ``searchsorted(time + _EPS)`` is wrong here:
        ``time + _EPS`` can round up onto an edge whose true distance
        from ``time`` exceeds ``_EPS``, so the snap test rejects it yet
        the insertion index lands *past* that edge — an out-of-order
        corruption of the breakpoint array.
        """
        times = self._times[: self._n]
        pos = int(times.searchsorted(time, side="left"))
        if pos < self._n and abs(float(times[pos]) - time) <= _EPS:
            return pos
        if pos > 0 and abs(float(times[pos - 1]) - time) <= _EPS:
            return pos - 1
        if time < float(times[0]) - _EPS:
            raise ProfileError(
                f"breakpoint {time} precedes profile origin {times[0]}"
            )
        self._insert(pos, time, int(self._free[max(pos - 1, 0)]))
        return pos

    def _apply(self, delta: int, start: float, end: float) -> None:
        if end <= start + _EPS:
            raise ProfileError(f"empty reservation window [{start}, {end})")
        # Validate against the existing segments BEFORE touching the
        # representation, so a failed apply leaves the profile bit-identical.
        # Only one bound can be violated per sign of delta: a reserve
        # (delta < 0) can only underflow the window minimum, a release only
        # overflow the maximum — so a single vectorized reduction suffices.
        times = self._times[: self._n]
        first_seg = max(int(times.searchsorted(start + _EPS, side="right")) - 1, 0)
        stop = int(times.searchsorted(end - _EPS, side="left"))
        if stop > first_seg:
            window = self._free[first_seg:stop]
            if delta < 0:
                worst = int(window.min()) + delta
                if worst < 0:
                    raise ProfileError(
                        f"free count would become {worst} (valid range "
                        f"[0, {self.total_procs}]) on [{start}, {end})"
                    )
            else:
                worst = int(window.max()) + delta
                if worst > self.total_procs:
                    raise ProfileError(
                        f"free count would become {worst} (valid range "
                        f"[0, {self.total_procs}]) on [{start}, {end})"
                    )
        first = self._ensure_breakpoint(start)
        last = self._ensure_breakpoint(end)
        self._free[first:last] += delta
        # Localized coalescing: every interior adjacent pair moved by the
        # same delta, so (by the coalesced invariant) it stays unequal; only
        # the two window edges can merge.  Repair ``last`` first so
        # ``first``'s index is still valid.
        if self._free[last] == self._free[last - 1]:
            self._delete(last)
        if first > 0 and self._free[first] == self._free[first - 1]:
            self._delete(first)

    def reserve(self, procs: int, start: float, duration: float) -> None:
        """Subtract ``procs`` from the free function on ``[start, start+duration)``."""
        if procs <= 0:
            raise ProfileError(f"reserve needs procs > 0, got {procs}")
        self._apply(-procs, start, start + duration)

    def release(self, procs: int, start: float, duration: float) -> None:
        """Add ``procs`` back on ``[start, start+duration)`` (undo a reserve)."""
        if procs <= 0:
            raise ProfileError(f"release needs procs > 0, got {procs}")
        self._apply(procs, start, start + duration)

    def advance(self, time: float) -> None:
        """Move the origin forward to ``time``, dropping stale breakpoints.

        The free count in force at ``time`` becomes the new first segment.
        No coalescing is needed: surviving adjacent pairs were adjacent
        (and hence unequal) before the prefix was dropped.
        """
        n = self._n
        times = self._times[:n]
        if time < times[0] - _EPS:
            raise ProfileError(
                f"cannot advance profile backwards ({times[0]} -> {time})"
            )
        index = int(times.searchsorted(time + _EPS, side="right")) - 1
        if index <= 0:
            if abs(times[0] - time) > _EPS and time > times[0]:
                self._times[0] = time
            return
        self._times[0 : n - index] = self._times[index:n]
        self._free[0 : n - index] = self._free[index:n]
        self._times[0] = time
        self._n = n - index

    def fork(self) -> "Profile":
        """Independent copy for scheduler checkpointing.

        Two array copies (the live prefix travels with its spare
        capacity) — no re-validation, no Python per-segment loop.
        """
        dup = Profile.__new__(Profile)
        dup.total_procs = self.total_procs
        dup._times = self._times.copy()
        dup._free = self._free.copy()
        dup._n = self._n
        return dup

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def from_running_jobs(
        cls,
        total_procs: int,
        now: float,
        running: Iterable[tuple[int, float]],
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

        Reuses the existing breakpoint arrays, so repacking schedulers
        (conservative's ``repack`` compression, depth, selective, slack)
        can rebuild their plan every event without allocating a fresh
        profile.  All running jobs occupy ``[now, horizon_i)``, so the free
        function is ``total - sum(procs of jobs with horizon > t)``: one
        sort of the horizons and a single sweep accumulating releases
        yields the exact step function sequential reserves would build.
        """
        if not math.isfinite(now):
            raise ProfileError(f"profile origin must be finite, got {now}")
        floor = now + 1e-6
        horizons: list[tuple[float, int]] = []
        busy = 0
        for procs, finish in running:
            if procs <= 0:
                raise ProfileError(f"reserve needs procs > 0, got {procs}")
            busy += procs
            horizons.append((finish if finish > floor else floor, procs))
        if busy > self.total_procs:
            raise ProfileError(
                f"free count would become {self.total_procs - busy} (valid "
                f"range [0, {self.total_procs}]) on [{now}, ...)"
            )
        horizons.sort()
        self._reserve_capacity(len(horizons) + 1)
        times, free = self._times, self._free
        times[0] = now
        level = self.total_procs - busy
        free[0] = level
        n = 1
        for horizon, procs in horizons:
            level += procs
            if horizon - times[n - 1] <= _EPS:
                # Endpoint merges with the previous breakpoint exactly the
                # way _ensure_breakpoint's tolerance would.
                free[n - 1] = level
            else:
                times[n] = horizon
                free[n] = level
                n += 1
        self._n = n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        steps = ", ".join(
            f"{t:.6g}:{f}"
            for t, f in zip(self._times[: self._n], self._free[: self._n])
        )
        return f"Profile(total={self.total_procs}, steps=[{steps}])"
