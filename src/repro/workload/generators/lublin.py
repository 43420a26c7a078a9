"""A Lublin-Feitelson-style general workload model.

Lublin & Feitelson ("The workload on parallel supercomputers: modeling the
characteristics of rigid jobs", JPDC 2003) is the standard trace-free model
for rigid parallel jobs.  This module implements its structure with the
published default parameters:

* **Width** — with probability ``p_serial`` the job is serial; otherwise the
  log2 of the size is drawn from a two-stage uniform distribution and
  rounded to a power of two with high probability.
* **Runtime** — a hyper-gamma distribution: a mixture of two gamma
  distributions whose mixing probability depends linearly on the job size
  (bigger jobs lean towards the long-runtime component).
* **Inter-arrival** — gamma-distributed gaps whose rate follows a daily
  cycle (we reuse the sinusoidal modulation from the base model rather than
  the original's slot-weight table; only the burstiness profile matters for
  our experiments).

It complements the CTC/SDSC generators as a third, structurally different
workload for robustness checks: the paper's claim is that *category-wise*
trends are trace independent, so showing them on a third trace family
strengthens the reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.generators.base import WorkloadGenerator, draw_table
from repro.workload.table import JobTable

__all__ = ["LublinGenerator"]


@dataclass(frozen=True)
class LublinGenerator(WorkloadGenerator):
    """Rigid-job workload following the Lublin-Feitelson structure.

    Parameters default to the model's published batch-job values, rescaled
    where necessary to the configured machine size.  ``mean_interarrival``
    directly controls the offered load.
    """

    max_procs: int = 256
    p_serial: float = 0.244
    p_pow2: float = 0.75
    #: two-stage uniform over log2(size): [ulow, umed] w.p. uprob, else [umed, uhi]
    uprob: float = 0.705
    ulow: float = 0.8
    #: upper log2 bound is derived from max_procs; umed sits 2.5 below it.
    runtime_g1_shape: float = 4.2
    runtime_g1_scale: float = 25.0
    runtime_g2_shape: float = 11.0
    runtime_g2_scale: float = 780.0
    #: mixing of the two gammas as a linear function of log2(size)
    pa: float = -0.0054
    pb: float = 0.78
    max_runtime: float = 172_800.0
    mean_interarrival: float = 800.0
    interarrival_shape: float = 0.45
    daily_cycle_amplitude: float = 0.4
    name: str = "LUBLIN"

    def __post_init__(self) -> None:
        if self.max_procs < 2:
            raise ConfigurationError(f"max_procs must be >= 2, got {self.max_procs}")
        for prob_name in ("p_serial", "p_pow2", "uprob"):
            value = getattr(self, prob_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{prob_name} must be in [0, 1], got {value}")
        if self.mean_interarrival <= 0:
            raise ConfigurationError(
                f"mean_interarrival must be > 0, got {self.mean_interarrival}"
            )
        if self.max_runtime <= 0:
            raise ConfigurationError(f"max_runtime must be > 0, got {self.max_runtime}")

    # -- component samplers -------------------------------------------------

    def _sample_width(self, rng: np.random.Generator) -> int:
        if rng.random() < self.p_serial:
            return 1
        uhi = math.log2(self.max_procs)
        umed = max(self.ulow + 0.1, uhi - 2.5)
        if rng.random() < self.uprob:
            log_size = rng.uniform(self.ulow, umed)
        else:
            log_size = rng.uniform(umed, uhi)
        if rng.random() < self.p_pow2:
            size = 2 ** round(log_size)
        else:
            size = round(2**log_size)
        return int(min(max(size, 1), self.max_procs))

    def _sample_runtime(self, rng: np.random.Generator, width: int) -> float:
        # Probability of the *short* gamma component falls with job size.
        p_short = self.pa * math.log2(max(width, 1)) + self.pb
        p_short = min(max(p_short, 0.0), 1.0)
        if rng.random() < p_short:
            runtime = rng.gamma(self.runtime_g1_shape, self.runtime_g1_scale)
        else:
            runtime = rng.gamma(self.runtime_g2_shape, self.runtime_g2_scale)
        return float(min(max(runtime, 1.0), self.max_runtime))

    def _sample_interarrival(self, rng: np.random.Generator, clock: float) -> float:
        scale = self.mean_interarrival / self.interarrival_shape
        gap = rng.gamma(self.interarrival_shape, scale)
        if self.daily_cycle_amplitude == 0.0:
            return gap
        phase = 2.0 * math.pi * ((clock % 86400.0) / 86400.0)
        relative_rate = 1.0 + self.daily_cycle_amplitude * math.sin(phase - math.pi / 2.0)
        return gap / max(relative_rate, 1e-9)

    # -- WorkloadGenerator ----------------------------------------------------

    def generate_table(self, n_jobs: int, *, seed: int = 0) -> JobTable:
        def draw_job(rng: np.random.Generator, clock: float):
            clock += self._sample_interarrival(rng, clock)
            width = self._sample_width(rng)
            return clock, self._sample_runtime(rng, width), width

        return draw_table(
            n_jobs,
            seed,
            draw_job,
            max_procs=self.max_procs,
            name=self.name,
            metadata={"generator": type(self).__name__, "seed": seed},
        )
