"""User runtime-estimate models.

The paper studies three estimate regimes:

* **exact** estimates (Section 4): ``estimate = runtime``;
* **systematic overestimation** (Section 5.1): ``estimate = R * runtime``
  for a constant factor R (the paper uses R = 1, 2, 4);
* **actual user estimates** (Section 5.2): a mix of *well estimated* jobs
  (``estimate <= 2 * runtime``) and *poorly estimated* jobs
  (``estimate > 2 * runtime``).

Real archive traces carry actual estimates in SWF field 9; the synthetic
generators instead attach estimates through one of the models below.
:class:`UserEstimateModel` reproduces the empirical shape reported by
Mu'alem & Feitelson (2001): users pick round wall-clock limits that are
usually generous multiples of the true runtime, so the estimate/runtime
factor is heavy-tailed.  The model exposes the well/poor mix directly because
that split is exactly what the paper's Section 5.2 analysis conditions on.

A model draws per job (:meth:`EstimateModel.estimate_for`) and per table
(:meth:`EstimateModel.column_estimates`, the one draw
:func:`~repro.workload.transforms.apply_estimates` makes).  The base
class's column draw loops the scalar one, so a custom model needs only
``estimate_for``; the built-in models vectorize it bit-identically.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.job import Job
from repro.workload.table import JobTable

__all__ = [
    "EstimateModel",
    "ExactEstimate",
    "MultiplicativeEstimate",
    "UserEstimateModel",
    "ClampedEstimate",
    "ROUND_LIMITS",
    "round_up_to_limit",
]

#: Common wall-clock limits users actually type (seconds): 5 min, 15 min,
#: 30 min, 1 h, 2 h, 4 h, 8 h, 12 h, 18 h, 24 h, 36 h, 48 h.
ROUND_LIMITS: tuple[float, ...] = (
    300.0,
    900.0,
    1800.0,
    3600.0,
    7200.0,
    14400.0,
    28800.0,
    43200.0,
    64800.0,
    86400.0,
    129600.0,
    172800.0,
)


def round_up_to_limit(seconds: float, limits: tuple[float, ...] = ROUND_LIMITS) -> float:
    """Round ``seconds`` up to the next common wall-clock limit.

    Values beyond the largest limit are rounded up to the next whole hour,
    mimicking sites that allow arbitrary long limits.
    """
    for limit in limits:
        if seconds <= limit:
            return limit
    return math.ceil(seconds / 3600.0) * 3600.0


def _round_up_to_limit_column(
    seconds: np.ndarray, limits: tuple[float, ...] = ROUND_LIMITS
) -> np.ndarray:
    """Vectorized :func:`round_up_to_limit` (bit-identical per element)."""
    limit_arr = np.asarray(limits, dtype=np.float64)
    # side="left" lands exact-limit values on that limit, matching the
    # scalar path's ``seconds <= limit`` scan.
    idx = np.searchsorted(limit_arr, seconds, side="left")
    out = limit_arr[np.minimum(idx, len(limit_arr) - 1)]
    beyond = idx >= len(limit_arr)
    if np.any(beyond):
        out = out.copy()
        # math.ceil and np.ceil agree on every float64 in range; the scalar
        # path's int result times 3600.0 is the same double.
        out[beyond] = np.ceil(seconds[beyond] / 3600.0) * 3600.0
    return out


class EstimateModel(ABC):
    """Maps a job's actual runtime to the estimate the scheduler will see."""

    @abstractmethod
    def estimate_for(self, job: Job, rng: np.random.Generator) -> float:
        """Return the user estimate (seconds, > 0 and >= runtime unless the
        model deliberately under-estimates)."""

    def column_estimates(
        self, table: JobTable, rng: np.random.Generator
    ) -> np.ndarray:
        """Estimates for every job of ``table`` at once.

        This default calls :meth:`estimate_for` per job in row order, so a
        model that only defines the scalar draw works on tables too.  The
        built-in models override it with array arithmetic under one
        contract: bit-identical to this loop with the same generator —
        including consuming the generator stream in exactly the scalar
        layout, so draws stay reproducible whichever body runs.
        """
        jobs = table.to_workload().jobs
        return np.fromiter(
            (self.estimate_for(job, rng) for job in jobs), dtype=np.float64, count=len(jobs)
        )


@dataclass(frozen=True)
class ExactEstimate(EstimateModel):
    """Perfect user estimates: ``estimate = runtime`` (paper Section 4)."""

    def estimate_for(self, job: Job, rng: np.random.Generator) -> float:
        return job.runtime

    def column_estimates(
        self, table: JobTable, rng: np.random.Generator
    ) -> np.ndarray:
        return table.runtime.copy()


@dataclass(frozen=True)
class MultiplicativeEstimate(EstimateModel):
    """Systematic overestimation: ``estimate = factor * runtime``.

    The paper's Section 5.1 uses factors R in {1, 2, 4} to study whether
    supercomputer centers should inflate user limits.
    """

    factor: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ConfigurationError(
                f"overestimation factor must be finite and > 0, got {self.factor}"
            )

    def estimate_for(self, job: Job, rng: np.random.Generator) -> float:
        return job.runtime * self.factor

    def column_estimates(
        self, table: JobTable, rng: np.random.Generator
    ) -> np.ndarray:
        return table.runtime * self.factor


@dataclass(frozen=True)
class UserEstimateModel(EstimateModel):
    """Realistic mixed-accuracy estimates (paper Section 5.2).

    With probability ``well_fraction`` a job is *well estimated*: its
    estimate is ``runtime * U(1, 2)`` (at most twice the true runtime).
    Otherwise it is *poorly estimated*: ``runtime * F`` where ``F`` is drawn
    log-uniformly from ``(2, max_factor]`` — a heavy right tail matching the
    empirical observation that many users request the queue maximum
    regardless of their job's real length.

    If ``round_to_limits`` is set, estimates are additionally rounded up to
    common wall-clock limits (still respecting ``estimate >= runtime``),
    which reproduces the clustering of estimates at round values seen in
    real traces.  Rounding is applied after the accuracy draw, so the
    realized well/poor split can drift slightly from ``well_fraction``
    (short jobs rounded up to 5 minutes may become "poor") — exactly the
    behaviour of real users typing round numbers.
    """

    well_fraction: float = 0.5
    max_factor: float = 64.0
    round_to_limits: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.well_fraction <= 1.0:
            raise ConfigurationError(
                f"well_fraction must be within [0, 1], got {self.well_fraction}"
            )
        if self.max_factor <= 2.0:
            raise ConfigurationError(
                f"max_factor must exceed 2 (the well/poor boundary), got {self.max_factor}"
            )

    def estimate_for(self, job: Job, rng: np.random.Generator) -> float:
        if rng.random() < self.well_fraction:
            factor = rng.uniform(1.0, 2.0)
        else:
            # Log-uniform on (2, max_factor]: heavy tail of gross overestimates.
            log_lo, log_hi = math.log(2.0), math.log(self.max_factor)
            factor = math.exp(rng.uniform(log_lo, log_hi))
        estimate = job.runtime * factor
        if self.round_to_limits:
            estimate = max(round_up_to_limit(estimate), job.runtime)
        return estimate

    def column_estimates(
        self, table: JobTable, rng: np.random.Generator
    ) -> np.ndarray:
        runtimes = table.runtime
        n = len(runtimes)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        # The scalar path consumes exactly two doubles per job — one
        # ``rng.random()`` then one ``rng.uniform(lo, hi)`` (which is
        # ``lo + (hi - lo) * next_double``) — regardless of the branch
        # taken.  Drawing 2n doubles in one call and de-interleaving
        # reproduces that stream bit for bit.
        draws = rng.random(size=2 * n)
        branch = draws[0::2]
        base = draws[1::2]
        well = branch < self.well_fraction
        factors = np.where(well, 1.0 + (2.0 - 1.0) * base, 0.0)
        poor = ~well
        if np.any(poor):
            log_lo, log_hi = math.log(2.0), math.log(self.max_factor)
            args = log_lo + (log_hi - log_lo) * base[poor]
            # math.exp, not np.exp: numpy's SIMD exp differs from libm by
            # an ULP on ~5% of inputs, which would break bit-equivalence
            # with the scalar path.
            factors[poor] = np.fromiter(
                (math.exp(a) for a in args), dtype=np.float64, count=len(args)
            )
        estimates = runtimes * factors
        if self.round_to_limits:
            estimates = np.maximum(_round_up_to_limit_column(estimates), runtimes)
        return estimates


@dataclass(frozen=True)
class ClampedEstimate(EstimateModel):
    """Wrap another model and clamp its estimates to ``[runtime, max_estimate]``.

    Models site-imposed queue limits: no matter how badly a user
    over-estimates, the wall-clock limit cannot exceed the queue maximum.
    The lower clamp keeps jobs from being killed early so that scheduling
    comparisons are not confounded by lost work.
    """

    inner: EstimateModel
    max_estimate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.max_estimate) or self.max_estimate <= 0:
            raise ConfigurationError(
                f"max_estimate must be finite and > 0, got {self.max_estimate}"
            )

    def estimate_for(self, job: Job, rng: np.random.Generator) -> float:
        raw = self.inner.estimate_for(job, rng)
        return max(job.runtime, min(raw, self.max_estimate))

    def column_estimates(
        self, table: JobTable, rng: np.random.Generator
    ) -> np.ndarray:
        runtimes = table.runtime
        raw = self.inner.column_estimates(table, rng)
        return np.maximum(runtimes, np.minimum(raw, self.max_estimate))
