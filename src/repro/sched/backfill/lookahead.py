"""Lookahead backfilling: optimize the backfill *set*, not the scan order.

EASY picks backfill jobs greedily in priority order, which can waste
processors: taking an early 6-proc candidate may exclude a later 4+4 pair
that would have filled the hole exactly.  Shmueli & Feitelson
("Backfilling with lookahead to optimize the packing of parallel jobs",
cited in the paper's bibliography line) replace the greedy scan with an
optimal packing step.  This scheduler implements the core of that idea on
top of the EASY reservation discipline:

1. Start jobs in priority order while they fit (identical to EASY).
2. Compute the blocked head's shadow time and extra processors (identical
   to EASY — the head's reservation is never compromised).
3. Among the candidates that would *finish by the shadow time*, choose the
   subset maximizing the number of processors put to work **right now**
   via a 0/1 knapsack over the free processors (dynamic program,
   vectorized with numpy).  Ties in packed processors are broken towards
   higher-priority jobs by scanning candidates in priority order.
4. Greedily admit remaining candidates into the extra processors (jobs
   that fit beside the head even after it starts), as in EASY.

The admission conditions are exactly EASY's, so every schedule this
produces is also a legal EASY-style schedule — only the chosen backfill
set differs, so steps 1–2 are EASY's own pass and this class overrides
only its backfill step.  The knapsack is O(candidates x free_procs) per
scheduling pass.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sched.backfill.easy import EasyScheduler
from repro.sched.tol import EPS_SNAP as _EPS
from repro.workload.job import Job

__all__ = ["LookaheadScheduler"]


def _max_packing(candidates: list[Job], capacity: int) -> list[Job]:
    """0/1 knapsack: subset of candidates maximizing total procs <= capacity.

    Value equals weight (processors), so the DP maximizes utilized
    processors.  Items are considered in the given (priority) order and
    reconstruction prefers earlier items, which breaks value ties towards
    higher-priority jobs.
    """
    if not candidates or capacity <= 0:
        return []
    sizes = [job.procs for job in candidates]
    # dp[c] = max procs achievable with capacity c
    dp = np.zeros(capacity + 1, dtype=np.int64)
    take = np.zeros((len(sizes), capacity + 1), dtype=bool)
    for index, size in enumerate(sizes):
        if size > capacity:
            continue
        shifted = np.concatenate([np.full(size, -1, dtype=np.int64), dp[:-size] + size])
        better = shifted > dp
        take[index] = better
        dp = np.where(better, shifted, dp)
    # Reconstruct from the full-capacity cell.
    chosen: list[Job] = []
    c = capacity
    for index in range(len(sizes) - 1, -1, -1):
        if c >= 0 and take[index, c]:
            chosen.append(candidates[index])
            c -= sizes[index]
    chosen.reverse()
    return chosen


class LookaheadScheduler(EasyScheduler):
    """EASY with an optimal-packing backfill step (see module docstring)."""

    name = "LOOK"

    def _backfill(self, now: float, candidates: Iterable[Job], free: int,
                  shadow: float, extra: int) -> list[Job]:
        # Partition the remaining queue by which EASY condition applies.
        candidates = list(candidates)
        shadow_safe = [
            job
            for job in candidates
            if job.procs <= free and now + job.estimate <= shadow + _EPS
        ]
        packed = _max_packing(shadow_safe, free)
        for job in packed:
            self._dequeue(job)
            free -= job.procs

        # Second chance for everything not packed: EASY's rule, whose
        # extra-processor branch may run past the shadow using processors
        # the head will not need.
        packed_ids = {job.job_id for job in packed}
        rest = (job for job in candidates if job.job_id not in packed_ids)
        return packed + super()._backfill(now, rest, free, shadow, extra)
