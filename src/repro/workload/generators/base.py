"""Generator framework and the category-mix trace model.

The central class is :class:`SyntheticTraceModel`: a declarative description
of a machine plus a joint distribution over (runtime, width, arrival) from
which reproducible workloads are drawn.  It is parameterized directly by the
paper's job categories (Table 1: Short <= 1 h, Narrow <= 8 processors) and
their trace-specific frequencies (Tables 2 and 3), because those mixes are
what drive the paper's results.

Distribution choices, and why they are faithful enough:

* **Runtime** within the Short/Long classes is log-uniform.  SP2 logs show
  runtimes spread over several orders of magnitude with roughly uniform
  mass per decade; log-uniform captures that with two parameters per class.
* **Width** is power-of-two biased.  In both SP2 logs the large majority of
  jobs request powers of two (users think in 2^k partitions); the generator
  draws a power of two with high probability and otherwise a uniform size
  within the class range.
* **Arrivals** are Poisson (exponential inter-arrival), optionally modulated
  by a daily cycle.  The experiments then use
  :func:`repro.workload.transforms.scale_load` exactly as the paper does to
  produce the high-load condition.

The model self-calibrates its arrival rate: given a ``target_load`` it
computes the mean inter-arrival time from the analytic expected job area, so
generated traces land near the requested offered load without trial and
error.

Every generator has one body, :meth:`WorkloadGenerator.generate_table`: it
draws each job's values in turn and collects them into the columns of a
:class:`~repro.workload.table.JobTable` (:func:`draw_table`), which
validates them once, vectorized.  No ``Job`` is built or validated per
draw; :meth:`WorkloadGenerator.generate` is
``generate_table(...).to_workload()``.  The RNG stream is the one the
row-at-a-time generators consumed, draw for draw (pinned against them by
``tests/properties/test_prop_generator_columns.py``): the category draw is
the ``random()`` plus right-bisect that ``Generator.choice(4, p=mix)``
performs, over the same cdf, built once per model.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable
import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.workload.job import Workload
from repro.workload.table import JobTable

__all__ = [
    "CategoryMix",
    "LogUniform",
    "PowerOfTwoWidths",
    "SyntheticTraceModel",
    "WorkloadGenerator",
]

#: Paper Table 1 thresholds.
SHORT_LONG_BOUNDARY_SECONDS = 3600.0
NARROW_WIDE_BOUNDARY_PROCS = 8

_CATEGORIES = ("SN", "SW", "LN", "LW")


@dataclass(frozen=True)
class CategoryMix:
    """Probabilities of the four paper categories (must sum to ~1).

    SN = Short Narrow, SW = Short Wide, LN = Long Narrow, LW = Long Wide.
    """

    sn: float
    sw: float
    ln: float
    lw: float

    def __post_init__(self) -> None:
        values = (self.sn, self.sw, self.ln, self.lw)
        if any(v < 0 for v in values):
            raise ConfigurationError(f"category probabilities must be >= 0: {values}")
        total = sum(values)
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ConfigurationError(
                f"category probabilities must sum to 1, got {total:.6f}"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sn, self.sw, self.ln, self.lw)

    @classmethod
    def from_percentages(cls, sn: float, sw: float, ln: float, lw: float) -> "CategoryMix":
        """Build from percentages, normalizing tiny rounding error."""
        total = sn + sw + ln + lw
        if total <= 0:
            raise ConfigurationError("percentages must sum to a positive value")
        return cls(sn / total, sw / total, ln / total, lw / total)


@dataclass(frozen=True)
class LogUniform:
    """Log-uniform distribution on [low, high] seconds."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0 < self.low <= self.high):
            raise ConfigurationError(
                f"log-uniform needs 0 < low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator) -> float:
        if self.low == self.high:
            return self.low
        return math.exp(rng.uniform(math.log(self.low), math.log(self.high)))

    # cached_property on a frozen dataclass is fine: it writes straight
    # into the instance __dict__, never through the blocked __setattr__.
    @cached_property
    def mean(self) -> float:
        """Analytic mean: (high - low) / ln(high / low)."""
        if self.low == self.high:
            return self.low
        return (self.high - self.low) / math.log(self.high / self.low)


@dataclass(frozen=True)
class PowerOfTwoWidths:
    """Processor-count distribution on [low, high], biased to powers of two.

    With probability ``p2`` draw uniformly among the powers of two inside
    the range (including ``low``/``high`` themselves when they are powers of
    two); otherwise draw uniformly over all integers in the range.
    """

    low: int
    high: int
    p2: float = 0.75

    def __post_init__(self) -> None:
        if not (1 <= self.low <= self.high):
            raise ConfigurationError(
                f"width range needs 1 <= low <= high, got [{self.low}, {self.high}]"
            )
        if not 0.0 <= self.p2 <= 1.0:
            raise ConfigurationError(f"p2 must be in [0, 1], got {self.p2}")

    @cached_property
    def _powers(self) -> tuple[int, ...]:
        # Pure function of the (frozen) range — computed once, read per
        # draw; this used to rebuild the list on every sample.
        powers = []
        p = 1
        while p <= self.high:
            if p >= self.low:
                powers.append(p)
            p *= 2
        return tuple(powers)

    def sample(self, rng: np.random.Generator) -> int:
        powers = self._powers
        if powers and rng.random() < self.p2:
            return int(powers[rng.integers(len(powers))])
        return int(rng.integers(self.low, self.high + 1))

    @cached_property
    def mean(self) -> float:
        """Analytic mean of the mixture."""
        powers = self._powers
        uniform_mean = (self.low + self.high) / 2.0
        if not powers:
            return uniform_mean
        p2_mean = sum(powers) / len(powers)
        return self.p2 * p2_mean + (1.0 - self.p2) * uniform_mean


@dataclass(frozen=True)
class SyntheticTraceModel:
    """Declarative model of an SP2-like trace (see module docstring).

    ``target_load`` is the offered load (utilization demand) at *normal*
    conditions; the experiments raise it with ``scale_load`` as the paper
    does.  ``daily_cycle_amplitude`` in [0, 1) optionally modulates the
    arrival rate sinusoidally over a 24 h period (0 disables the cycle).
    """

    name: str
    max_procs: int
    mix: CategoryMix
    short_runtime: LogUniform = LogUniform(30.0, SHORT_LONG_BOUNDARY_SECONDS)
    long_runtime: LogUniform = LogUniform(SHORT_LONG_BOUNDARY_SECONDS, 64800.0)
    narrow_width: PowerOfTwoWidths = PowerOfTwoWidths(1, NARROW_WIDE_BOUNDARY_PROCS)
    wide_width: PowerOfTwoWidths = field(default=None)  # type: ignore[assignment]
    target_load: float = 0.65
    daily_cycle_amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.max_procs <= NARROW_WIDE_BOUNDARY_PROCS:
            raise ConfigurationError(
                f"machine must be wider than the narrow/wide boundary "
                f"({NARROW_WIDE_BOUNDARY_PROCS}), got {self.max_procs}"
            )
        if not 0 < self.target_load:
            raise ConfigurationError(f"target_load must be > 0, got {self.target_load}")
        if not 0.0 <= self.daily_cycle_amplitude < 1.0:
            raise ConfigurationError(
                f"daily_cycle_amplitude must be in [0, 1), got {self.daily_cycle_amplitude}"
            )
        if self.wide_width is None:
            object.__setattr__(
                self,
                "wide_width",
                PowerOfTwoWidths(NARROW_WIDE_BOUNDARY_PROCS + 1, self.max_procs),
            )
        if self.wide_width.high > self.max_procs:
            raise ConfigurationError(
                f"wide width range [{self.wide_width.low}, {self.wide_width.high}] "
                f"exceeds machine size {self.max_procs}"
            )
        if self.short_runtime.high > SHORT_LONG_BOUNDARY_SECONDS + 1e-9:
            raise ConfigurationError(
                "short_runtime must stay within the Short class (<= 1 h)"
            )
        if self.long_runtime.low < SHORT_LONG_BOUNDARY_SECONDS - 1e-9:
            raise ConfigurationError(
                "long_runtime must stay within the Long class (> 1 h)"
            )

    # -- analytic calibration ------------------------------------------------

    @cached_property
    def expected_area(self) -> float:
        """E[runtime x width] of one job under the category mixture.

        Runtime and width are independent *within* a category, so the
        expectation is the mix-weighted product of per-class means.
        """
        sn, sw, ln, lw = self.mix.as_tuple()
        return (
            sn * self.short_runtime.mean * self.narrow_width.mean
            + sw * self.short_runtime.mean * self.wide_width.mean
            + ln * self.long_runtime.mean * self.narrow_width.mean
            + lw * self.long_runtime.mean * self.wide_width.mean
        )

    @cached_property
    def mean_interarrival(self) -> float:
        """Mean inter-arrival time achieving ``target_load`` on this machine."""
        return self.expected_area / (self.max_procs * self.target_load)

    # -- sampling --------------------------------------------------------------

    @cached_property
    def _category_cdf(self) -> tuple[float, ...]:
        """The cumulative mix that ``rng.choice(4, p=mix)`` bisects.

        ``Generator.choice`` with ``p`` draws one ``random()`` and
        right-bisects it into ``cdf = p.cumsum(); cdf /= cdf[-1]``.  The
        cdf is built here once, the same way, so every draw is the one
        ``choice`` would make without its per-call argument handling.
        ``choice``'s checks on ``p`` run here too: :class:`CategoryMix`
        accepts a sum within 1e-6 of 1, numpy only within sqrt(eps), and a
        mix numpy would reject must still raise.
        """
        p = np.array(self.mix.as_tuple(), dtype=np.float64)
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(math.fsum(p) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
            raise ValueError("Probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return tuple(cdf.tolist())

    def sample_category(self, rng: np.random.Generator) -> str:
        return _CATEGORIES[bisect_right(self._category_cdf, rng.random())]

    def sample_job_shape(self, rng: np.random.Generator) -> tuple[float, int, str]:
        """Draw (runtime, width, category) for one job."""
        category = self.sample_category(rng)
        runtime_dist = self.short_runtime if category[0] == "S" else self.long_runtime
        width_dist = self.narrow_width if category[1] == "N" else self.wide_width
        runtime = runtime_dist.sample(rng)
        # Guard the class boundaries against floating-point edge draws.
        if category[0] == "S":
            runtime = min(runtime, SHORT_LONG_BOUNDARY_SECONDS)
        else:
            runtime = max(runtime, math.nextafter(SHORT_LONG_BOUNDARY_SECONDS, math.inf))
        width = width_dist.sample(rng)
        return runtime, width, category

    def sample_interarrival(self, rng: np.random.Generator, clock: float) -> float:
        """Draw the gap to the next arrival, honouring the daily cycle."""
        base = rng.exponential(self.mean_interarrival)
        if self.daily_cycle_amplitude == 0.0:
            return base
        # Modulate by the instantaneous intensity of a sinusoidal daily cycle
        # (peak at noon).  Scaling the exponential gap by the inverse relative
        # rate is a standard thinning-free approximation adequate for load
        # shaping (the experiments only need a realistic burstiness profile).
        phase = 2.0 * math.pi * ((clock % 86400.0) / 86400.0)
        relative_rate = 1.0 + self.daily_cycle_amplitude * math.sin(phase - math.pi / 2.0)
        return base / max(relative_rate, 1e-9)


def draw_table(
    n_jobs: int,
    seed: int,
    draw_job: Callable[[np.random.Generator, float], tuple[float, float, int]],
    *,
    max_procs: int,
    name: str,
    metadata: dict,
) -> JobTable:
    """Draw ``n_jobs`` jobs into a :class:`JobTable`: the loop every
    generator shares.

    ``draw_job(rng, clock)`` makes a generator's own draws for one job and
    returns its ``(submit, runtime, procs)``; the user and group draws
    follow it, in that order, which is the stream every generator has
    always consumed.  Jobs are numbered 1..n in arrival order, carry exact
    estimates (``estimate == runtime``) and status 1, and leave every
    other SWF field unknown (-1).  The table validates the columns once,
    vectorized, in place of one ``Job.__post_init__`` per draw.
    """
    if n_jobs < 0:
        raise WorkloadError(f"n_jobs must be >= 0, got {n_jobs}")
    rng = np.random.default_rng(seed)
    integers = rng.integers
    clock = 0.0
    submit: list[float] = []
    runtime: list[float] = []
    procs: list[int] = []
    user_id: list = []
    group_id: list = []
    for _ in range(n_jobs):
        clock, job_runtime, width = draw_job(rng, clock)
        submit.append(clock)
        runtime.append(job_runtime)
        procs.append(width)
        user_id.append(integers(1, 101))
        group_id.append(integers(1, 11))
    runtime_column = np.array(runtime, dtype=np.float64)
    unknown_int = np.full(n_jobs, -1, dtype=np.int64)
    unknown_float = np.full(n_jobs, -1.0, dtype=np.float64)
    columns = {
        "job_id": np.arange(1, n_jobs + 1, dtype=np.int64),
        "submit_time": np.array(submit, dtype=np.float64),
        "runtime": runtime_column,
        "estimate": runtime_column,
        "procs": np.array(procs, dtype=np.int64),
        "user_id": np.array(user_id, dtype=np.int64),
        "group_id": np.array(group_id, dtype=np.int64),
        "executable": unknown_int,
        "queue": unknown_int,
        "partition": unknown_int,
        "status": np.ones(n_jobs, dtype=np.int64),
        "avg_cpu_time": unknown_float,
        "used_memory": unknown_float,
        "requested_memory": unknown_float,
        "preceding_job": unknown_int,
        "think_time": unknown_float,
    }
    return JobTable(columns, max_procs, name, metadata)


class WorkloadGenerator(ABC):
    """Something that produces reproducible workloads from an integer seed.

    :meth:`generate_table` is the one body of a generator; the row form is
    derived from it.
    """

    @abstractmethod
    def generate_table(self, n_jobs: int, *, seed: int = 0) -> JobTable:
        """Generate ``n_jobs`` jobs as columns.  Equal seeds give equal tables."""

    def generate(self, n_jobs: int, *, seed: int = 0) -> Workload:
        """Generate ``n_jobs`` jobs.  Equal seeds give identical workloads."""
        return self.generate_table(n_jobs, seed=seed).to_workload()


@dataclass(frozen=True)
class ModelGenerator(WorkloadGenerator):
    """Generate workloads by sampling a :class:`SyntheticTraceModel`.

    Generated jobs carry exact estimates (``estimate == runtime``); the
    experiments layer estimate models on top via
    :func:`repro.workload.transforms.apply_estimates`.
    """

    model: SyntheticTraceModel

    def generate_table(self, n_jobs: int, *, seed: int = 0) -> JobTable:
        model = self.model
        sample_interarrival = model.sample_interarrival
        sample_job_shape = model.sample_job_shape
        categories: dict[str, int] = {c: 0 for c in _CATEGORIES}

        def draw_job(rng: np.random.Generator, clock: float):
            clock += sample_interarrival(rng, clock)
            runtime, width, category = sample_job_shape(rng)
            categories[category] += 1
            return clock, runtime, width

        return draw_table(
            n_jobs,
            seed,
            draw_job,
            max_procs=model.max_procs,
            name=model.name,
            metadata={
                "generator": type(self).__name__,
                "seed": seed,
                "target_load": model.target_load,
                "category_counts": categories,
            },
        )
