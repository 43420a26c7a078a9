"""REFERENCE availability profile: the pre-optimization kernel, kept verbatim.

This module freezes the straightforward :class:`Profile` implementation
that :mod:`repro.sched.profile` originally shipped — every mutation
re-validates and fully re-coalesces its arrays, and
:meth:`Profile.from_running_jobs` builds by sequential ``reserve`` calls
(O(R^2) for R running jobs).  The optimized kernel must produce
*byte-identical schedules* against this one; the differential property
suites (``tests/properties/test_prop_kernel_equivalence.py``,
``test_prop_batch_claims.py``, ``test_prop_chain_equivalence.py``) run
schedulers against it via :func:`configure_reference_kernel`.

Do not optimize this file: its value is being the slow, obviously-correct
oracle.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable

from repro.errors import ProfileError

__all__ = ["Profile", "configure_reference_kernel"]

#: Tolerance for comparing reservation timestamps.
_EPS = 1e-9


class Profile:
    """Free-processor step function over ``[origin, +inf)``."""

    __slots__ = ("total_procs", "_times", "_free")

    def __init__(self, total_procs: int, origin: float = 0.0) -> None:
        if total_procs <= 0:
            raise ProfileError(f"profile needs > 0 processors, got {total_procs}")
        if not math.isfinite(origin):
            raise ProfileError(f"profile origin must be finite, got {origin}")
        self.total_procs = total_procs
        # Parallel arrays: breakpoint times and the free count from each
        # breakpoint until the next.  Invariants: _times strictly increasing,
        # _times[0] is the origin, 0 <= free <= total_procs.
        self._times: list[float] = [origin]
        self._free: list[int] = [total_procs]

    # -- queries --------------------------------------------------------------

    @property
    def origin(self) -> float:
        """Left edge of the profile (the current simulation clock)."""
        return self._times[0]

    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (must be >= origin)."""
        if time < self._times[0] - _EPS:
            raise ProfileError(
                f"query at {time} precedes profile origin {self._times[0]}"
            )
        index = bisect.bisect_right(self._times, time + _EPS) - 1
        return self._free[max(index, 0)]

    def min_free(self, start: float, duration: float) -> int:
        """Minimum free processors over the window ``[start, start+duration)``."""
        if duration <= 0:
            return self.free_at(start)
        end = start + duration
        first = max(bisect.bisect_right(self._times, start + _EPS) - 1, 0)
        lowest = self.total_procs
        for index in range(first, len(self._times)):
            if self._times[index] >= end - _EPS:
                break
            lowest = min(lowest, self._free[index])
        return lowest

    def breakpoints(self) -> list[tuple[float, int]]:
        """Copy of the step function as ``(time, free)`` pairs."""
        return list(zip(self._times, self._free))

    # -- core primitive ----------------------------------------------------------

    def find_start(self, procs: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``procs`` free over ``[t, t+duration)``.

        Candidate anchors are ``earliest`` itself and every later breakpoint
        (free counts only change at breakpoints, so the optimum is always one
        of these).  Implemented as a single left-to-right sweep tracking the
        start of the current feasible run — O(breakpoints), not
        O(breakpoints^2) as a per-anchor rescan would be (this is the inner
        loop of every reservation-based scheduler; see
        benchmarks/bench_profile.py).  Always succeeds: the profile ends in
        a final infinite segment, so any rectangle with ``procs <= total``
        fits once all reservations end — unless the tail itself is
        over-reserved, which is a usage bug.
        """
        if procs <= 0 or procs > self.total_procs:
            raise ProfileError(
                f"cannot place {procs} procs on a {self.total_procs}-proc profile"
            )
        if duration <= 0:
            raise ProfileError(f"duration must be > 0, got {duration}")
        earliest = max(earliest, self._times[0])

        times, free = self._times, self._free
        # Exact bisect, NOT the +_EPS-fudged one the other queries use: with
        # the fudge, a breakpoint in ``(earliest, earliest + _EPS]`` makes the
        # sweep skip the segment that actually contains ``earliest`` — and if
        # that segment is feasible, the job is delayed past a start the
        # profile can support.  The exact form never anchors inside an
        # infeasible sliver either: run_start stays clamped to segments whose
        # free count was checked.
        index = max(bisect.bisect_right(times, earliest) - 1, 0)
        run_start: float | None = None
        for i in range(index, len(times)):
            if free[i] < procs:
                run_start = None
                continue
            if run_start is None:
                run_start = max(times[i], earliest)
            segment_end = times[i + 1] if i + 1 < len(times) else math.inf
            if segment_end >= run_start + duration - _EPS:
                return run_start
        raise ProfileError(
            f"no feasible start for {procs} procs x {duration}s — "
            "the profile's tail is over-reserved"
        )

    def claim(self, procs: int, duration: float, earliest: float) -> float:
        """:meth:`find_start` + :meth:`reserve` in sequence; returns the start.

        The optimized kernel fuses these into one pass; the reference keeps
        the literal two-call composition so the differential suite pins the
        fused path to the seed semantics.
        """
        start = self.find_start(procs, duration, earliest)
        self.reserve(procs, start, duration)
        return start

    # -- batch primitives (naive loop equivalents) ---------------------------------
    #
    # The optimized kernel vectorizes these; the oracle keeps the literal
    # one-call-per-job loops so the batch-claim property suite
    # (tests/properties/test_prop_batch_claims.py) can pin the vectorized
    # forms to the obviously-correct sequential semantics.

    def claim_many(self, procs, durations, earliest: float) -> list[float]:
        """One :meth:`claim` per job, in order — the definitional semantics."""
        return [self.claim(p, d, earliest) for p, d in zip(procs, durations)]

    def min_free_many(self, durations, start: float) -> list[int]:
        """One :meth:`min_free` per duration from a common start."""
        for d in durations:
            if d <= 0:
                raise ProfileError(f"duration must be > 0, got {float(d)}")
        return [self.min_free(start, d) for d in durations]

    # -- mutations ------------------------------------------------------------------

    def _ensure_breakpoint(self, time: float) -> int:
        """Make ``time`` a breakpoint (splitting a segment) and return its index.

        Exact bisect plus a two-sided tolerance snap (fixed in both
        kernels together): ``bisect_right(time + _EPS)`` can round onto
        an edge farther than ``_EPS`` from ``time``, rejecting the snap
        yet inserting past that edge out of order.
        """
        pos = bisect.bisect_left(self._times, time)
        if pos < len(self._times) and abs(self._times[pos] - time) <= _EPS:
            return pos
        if pos > 0 and abs(self._times[pos - 1] - time) <= _EPS:
            return pos - 1
        if time < self._times[0] - _EPS:
            raise ProfileError(
                f"breakpoint {time} precedes profile origin {self._times[0]}"
            )
        self._times.insert(pos, time)
        self._free.insert(pos, self._free[max(pos - 1, 0)])
        return pos

    def _apply(self, delta: int, start: float, end: float) -> None:
        if end <= start + _EPS:
            raise ProfileError(f"empty reservation window [{start}, {end})")
        # Validate against the existing segments BEFORE touching the
        # representation, so a failed apply leaves the profile bit-identical.
        first_seg = max(bisect.bisect_right(self._times, start + _EPS) - 1, 0)
        for index in range(first_seg, len(self._times)):
            if self._times[index] >= end - _EPS:
                break
            updated = self._free[index] + delta
            if updated < 0 or updated > self.total_procs:
                raise ProfileError(
                    f"free count would become {updated} (valid range "
                    f"[0, {self.total_procs}]) on [{self._times[index]}, ...)"
                )
        first = self._ensure_breakpoint(start)
        last = self._ensure_breakpoint(end)
        for index in range(first, last):
            self._free[index] += delta
        self._coalesce()

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
        """
        if time < self._times[0] - _EPS:
            raise ProfileError(
                f"cannot advance profile backwards ({self._times[0]} -> {time})"
            )
        index = bisect.bisect_right(self._times, time + _EPS) - 1
        if index <= 0:
            if abs(self._times[0] - time) > _EPS and time > self._times[0]:
                self._times[0] = time
            return
        del self._times[:index]
        del self._free[:index]
        self._times[0] = time
        self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent segments with equal free counts."""
        write = 0
        for read in range(1, len(self._times)):
            if self._free[read] != self._free[write]:
                write += 1
                self._times[write] = self._times[read]
                self._free[write] = self._free[read]
        del self._times[write + 1 :]
        del self._free[write + 1 :]

    def fork(self) -> "Profile":
        """Independent copy for scheduler checkpointing (naive list copy).

        Part of the frozen kernel API so the checkpoint differential
        suite covers both kernels; kept deliberately plain.
        """
        dup = Profile.__new__(Profile)
        dup.total_procs = self.total_procs
        dup._times = list(self._times)
        dup._free = list(self._free)
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
        busy.
        """
        profile = cls(total_procs, origin=now)
        for procs, finish in running:
            horizon = max(finish, now + 1e-6)
            profile.reserve(procs, now, horizon - now)
        return profile

    def rebuild_into(self, now: float, running: Iterable[tuple[int, float]]) -> None:
        """Reset to origin ``now`` and reload ``running`` occupancy.

        API-compatible with the optimized kernel's buffer-reuse repack
        path, implemented the slow reference way: a fresh single segment
        followed by one sequential ``reserve`` per running job.
        """
        if not math.isfinite(now):
            raise ProfileError(f"profile origin must be finite, got {now}")
        self._times[:] = [now]
        self._free[:] = [self.total_procs]
        for procs, finish in running:
            horizon = max(finish, now + 1e-6)
            self.reserve(procs, now, horizon - now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        steps = ", ".join(f"{t:.6g}:{f}" for t, f in zip(self._times, self._free))
        return f"Profile(total={self.total_procs}, steps=[{steps}])"


def configure_reference_kernel(scheduler):
    """Point a scheduler instance at the reference kernel (before ``bind()``)."""
    scheduler.profile_factory = Profile
    return scheduler
