"""REFERENCE per-row builders: the row generators and the row-JSON
metrics decoder, kept verbatim.

The shipped generators draw straight into columns
(:meth:`repro.workload.generators.base.WorkloadGenerator.generate_table`),
and the result store keeps completed-job records as typed columns
(:mod:`repro.exec.serialize`).  Both must stay *exactly* equivalent to the
straightforward implementations frozen here, which build and validate one
``Job`` (and one ``CompletedJob``) per row:

* :func:`generate_rows` — ``ModelGenerator.generate`` and
  ``LublinGenerator.generate`` with every sampler they call, drawing the
  category through ``rng.choice(4, p=...)``;
* :func:`metrics_from_row_payload` — the row decoder of the
  ``metrics_to_payload`` form (one validated ``Job`` and ``CompletedJob``
  per record, then ``summarize``).

``tests/properties/test_prop_generator_columns.py`` and
``tests/properties/test_prop_store_codec.py`` compare against them.

Do not optimize this file: its value is being the slow, obviously-correct
oracle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import WorkloadError
from repro.metrics.collector import CompletedJob, RunMetrics, summarize
from repro.workload.generators.base import (
    SHORT_LONG_BOUNDARY_SECONDS,
    ModelGenerator,
    SyntheticTraceModel,
)
from repro.workload.generators.lublin import LublinGenerator
from repro.workload.job import Job, Workload

__all__ = ["generate_rows", "metrics_from_row_payload"]

_CATEGORIES = ("SN", "SW", "LN", "LW")


# -- the category-mix model's samplers ------------------------------------------


def _log_uniform(dist, rng: np.random.Generator) -> float:
    if dist.low == dist.high:
        return dist.low
    return math.exp(rng.uniform(math.log(dist.low), math.log(dist.high)))


def _power_of_two_width(dist, rng: np.random.Generator) -> int:
    powers = []
    p = 1
    while p <= dist.high:
        if p >= dist.low:
            powers.append(p)
        p *= 2
    if powers and rng.random() < dist.p2:
        return int(powers[rng.integers(len(powers))])
    return int(rng.integers(dist.low, dist.high + 1))


def _sample_category(model: SyntheticTraceModel, rng: np.random.Generator) -> str:
    index = rng.choice(4, p=model.mix.as_tuple())
    return _CATEGORIES[index]


def _sample_job_shape(
    model: SyntheticTraceModel, rng: np.random.Generator
) -> tuple[float, int, str]:
    category = _sample_category(model, rng)
    runtime_dist = model.short_runtime if category[0] == "S" else model.long_runtime
    width_dist = model.narrow_width if category[1] == "N" else model.wide_width
    runtime = _log_uniform(runtime_dist, rng)
    if category[0] == "S":
        runtime = min(runtime, SHORT_LONG_BOUNDARY_SECONDS)
    else:
        runtime = max(runtime, math.nextafter(SHORT_LONG_BOUNDARY_SECONDS, math.inf))
    width = _power_of_two_width(width_dist, rng)
    return runtime, width, category


def _model_interarrival(
    model: SyntheticTraceModel, rng: np.random.Generator, clock: float
) -> float:
    base = rng.exponential(model.mean_interarrival)
    if model.daily_cycle_amplitude == 0.0:
        return base
    phase = 2.0 * math.pi * ((clock % 86400.0) / 86400.0)
    relative_rate = 1.0 + model.daily_cycle_amplitude * math.sin(phase - math.pi / 2.0)
    return base / max(relative_rate, 1e-9)


def _generate_model_rows(generator: ModelGenerator, n_jobs: int, seed: int) -> Workload:
    if n_jobs < 0:
        raise WorkloadError(f"n_jobs must be >= 0, got {n_jobs}")
    model = generator.model
    rng = np.random.default_rng(seed)
    clock = 0.0
    jobs: list[Job] = []
    categories: dict[str, int] = {c: 0 for c in _CATEGORIES}
    for index in range(n_jobs):
        clock += _model_interarrival(model, rng, clock)
        runtime, width, category = _sample_job_shape(model, rng)
        categories[category] += 1
        jobs.append(
            Job(
                job_id=index + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=runtime,
                procs=width,
                user_id=int(rng.integers(1, 101)),
                group_id=int(rng.integers(1, 11)),
                status=1,
            )
        )
    return Workload(
        tuple(jobs),
        model.max_procs,
        name=model.name,
        metadata={
            "generator": type(generator).__name__,
            "seed": seed,
            "target_load": model.target_load,
            "category_counts": categories,
        },
    )


# -- the Lublin-Feitelson model's samplers --------------------------------------


def _lublin_width(g: LublinGenerator, rng: np.random.Generator) -> int:
    if rng.random() < g.p_serial:
        return 1
    uhi = math.log2(g.max_procs)
    umed = max(g.ulow + 0.1, uhi - 2.5)
    if rng.random() < g.uprob:
        log_size = rng.uniform(g.ulow, umed)
    else:
        log_size = rng.uniform(umed, uhi)
    if rng.random() < g.p_pow2:
        size = 2 ** round(log_size)
    else:
        size = round(2**log_size)
    return int(min(max(size, 1), g.max_procs))


def _lublin_runtime(g: LublinGenerator, rng: np.random.Generator, width: int) -> float:
    p_short = g.pa * math.log2(max(width, 1)) + g.pb
    p_short = min(max(p_short, 0.0), 1.0)
    if rng.random() < p_short:
        runtime = rng.gamma(g.runtime_g1_shape, g.runtime_g1_scale)
    else:
        runtime = rng.gamma(g.runtime_g2_shape, g.runtime_g2_scale)
    return float(min(max(runtime, 1.0), g.max_runtime))


def _lublin_interarrival(
    g: LublinGenerator, rng: np.random.Generator, clock: float
) -> float:
    scale = g.mean_interarrival / g.interarrival_shape
    gap = rng.gamma(g.interarrival_shape, scale)
    if g.daily_cycle_amplitude == 0.0:
        return gap
    phase = 2.0 * math.pi * ((clock % 86400.0) / 86400.0)
    relative_rate = 1.0 + g.daily_cycle_amplitude * math.sin(phase - math.pi / 2.0)
    return gap / max(relative_rate, 1e-9)


def _generate_lublin_rows(g: LublinGenerator, n_jobs: int, seed: int) -> Workload:
    if n_jobs < 0:
        raise WorkloadError(f"n_jobs must be >= 0, got {n_jobs}")
    rng = np.random.default_rng(seed)
    clock = 0.0
    jobs: list[Job] = []
    for index in range(n_jobs):
        clock += _lublin_interarrival(g, rng, clock)
        width = _lublin_width(g, rng)
        runtime = _lublin_runtime(g, rng, width)
        jobs.append(
            Job(
                job_id=index + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=runtime,
                procs=width,
                user_id=int(rng.integers(1, 101)),
                group_id=int(rng.integers(1, 11)),
                status=1,
            )
        )
    return Workload(
        tuple(jobs),
        g.max_procs,
        name=g.name,
        metadata={"generator": type(g).__name__, "seed": seed},
    )


def generate_rows(generator, n_jobs: int, *, seed: int = 0) -> Workload:
    """Row-at-a-time ``generator.generate(n_jobs, seed=seed)``."""
    if isinstance(generator, LublinGenerator):
        return _generate_lublin_rows(generator, n_jobs, seed)
    return _generate_model_rows(generator, n_jobs, seed)


# -- the row-JSON metrics decoder -------------------------------------------------

_JOB_FIELDS = (
    "job_id",
    "submit_time",
    "runtime",
    "estimate",
    "procs",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "status",
    "avg_cpu_time",
    "used_memory",
    "requested_memory",
    "preceding_job",
    "think_time",
)


def metrics_from_row_payload(payload: dict) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from ``metrics_to_payload`` output.

    Raises ``KeyError``/``TypeError``/``repro.errors.ReproError`` on
    malformed payloads.
    """
    expected_columns = ["start_time", "finish_time", *_JOB_FIELDS]
    if payload["columns"] != expected_columns:
        raise ValueError(
            f"unexpected record columns {payload['columns']!r}"
        )
    records = [
        CompletedJob(
            job=Job(**dict(zip(_JOB_FIELDS, row[2:], strict=True))),
            start_time=row[0],
            finish_time=row[1],
        )
        for row in payload["records"]
    ]
    return summarize(
        records,
        utilization=payload["utilization"],
        makespan=payload["makespan"],
    )
