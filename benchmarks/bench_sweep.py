"""End-to-end sweep benchmark: the columnar workload pipeline.

A characterization sweep touches many ``(seed, load, horizon)``
conditions per trace, and with the simulation kernel already fast, sweep
wall-clock is dominated by everything *around* the kernel: workload
generation, per-condition transforms, and metric aggregation.  This
benchmark times one representative multi-seed sweep — offered load x
trace horizon (the standard convergence check: has the metric stabilized
in trace length?) under the paper's user-estimate regime — through the
pipeline: one memoized base table per ``(trace, n_jobs, seed)``,
vectorized load/estimate/window derivation per condition, and the
vectorized ``summarize``.

Wall-clock, cells/s, and events/s land in ``benchmarks/BENCH_sweep.json``
(keys ending ``events_per_second`` are gated by
``benchmarks/compare_bench.py``); ``bench_hotloop.py`` reads the
checked-in file as its frozen baseline.  The row-at-a-time pipeline this
one replaced lives on as the differential oracle in
``tests/oracles/row_pipeline.py``.

On hosts with more than 2 CPUs a parallel leg pair is also timed:
singleton dispatch (one cell per task, workers rebuild workloads from
scratch) vs chunked dispatch with worker preload (tables shipped once
through the pool initializer).  On smaller hosts the pair just measures
pool overhead, so it is skipped and marked ``parallel_leg_run: false``,
following ``bench_simulator.py``.
"""

import json
import os
import time
from pathlib import Path

from repro.exec import Cell, CellExecutor, ResultStore, metrics_digest
from repro.experiments.config import WorkloadSpec
from repro.hostinfo import host_provenance
from repro.experiments.runner import (
    clear_cache,
    make_scheduler,
    make_workload_table,
)
from repro.sim.engine import simulate
from repro.workload.transforms import truncate

TRACE = "CTC"
N_JOBS = 1500
SEEDS = (1, 2, 3, 4, 5, 6)
LOAD_SCALES = (0.8, 0.94, 1.08, 1.22, 1.36)
HORIZONS = (750, 1125, 1500)
ESTIMATE = "user"
SCHEDULER = ("nobf", "FCFS")

#: Timing repetitions; the *median* wall-clock is reported, which is
#: robust to a slow host phase where a minimum would flatter the
#: quietest slice.
REPS = 3

#: Worker count for the parallel leg pair (only run with > 2 CPUs).
PARALLEL_WORKERS = 4


def sweep_conditions() -> list[tuple[WorkloadSpec, int]]:
    """The multi-seed sweep grid: 90 ``(spec, horizon)`` conditions.

    An offered-load x trace-horizon sweep under the paper's user-estimate
    regime, repeated over six generator seeds — the load axis is the
    shape of every load-response figure in the paper, and the horizon
    axis is the standard convergence check (simulate growing windows of
    the same trace until the metric stabilizes).  It is also the shape
    that stresses the workload pipeline: every condition re-derives load
    scale, estimates, and window, while the simulations themselves
    (uncontended FCFS at these loads) stay comparatively cheap.
    """
    return [
        (WorkloadSpec(TRACE, N_JOBS, seed, load, ESTIMATE), horizon)
        for seed in SEEDS
        for load in LOAD_SCALES
        for horizon in HORIZONS
    ]


def run_columnar_serial(conditions: list[tuple[WorkloadSpec, int]]) -> int:
    """One sweep through the columnar pipeline; returns total events."""
    events = 0
    kind, priority = SCHEDULER
    for spec, horizon in conditions:
        workload = truncate(make_workload_table(spec), max_jobs=horizon).to_workload()
        events += simulate(workload, make_scheduler(kind, priority)).events_processed
    return events


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _time_leg(leg, conditions: list[tuple[WorkloadSpec, int]]) -> tuple[float, int]:
    """(cold-cache wall-clock seconds, events) for one sweep."""
    clear_cache()
    started = time.perf_counter()
    events = leg(conditions)
    return time.perf_counter() - started, events


def _time_executor(cells: list[Cell], **executor_kwargs) -> tuple[float, list]:
    clear_cache()
    executor = CellExecutor(store=ResultStore(), **executor_kwargs)
    started = time.perf_counter()
    metrics = executor.execute(cells)
    return time.perf_counter() - started, metrics


def test_sweep_pipeline_writes_bench_json():
    """Columnar sweep wall-clock -> BENCH_sweep.json."""
    conditions = sweep_conditions()

    col_times = []
    col_events = 0
    for _ in range(REPS):
        seconds, col_events = _time_leg(run_columnar_serial, conditions)
        col_times.append(seconds)
    col_seconds = _median(col_times)

    cpu_count = os.cpu_count() or 1
    parallel_leg_run = cpu_count > 2

    n_cells = len(conditions)
    payload = {
        "schema": 1,
        "host": host_provenance(),
        "trace": TRACE,
        "n_jobs_per_trace": N_JOBS,
        "n_seeds": len(SEEDS),
        "load_scales": list(LOAD_SCALES),
        "horizons": list(HORIZONS),
        "estimate": ESTIMATE,
        "n_cells": n_cells,
        "scheduler": list(SCHEDULER),
        "cpu_count": cpu_count,
        "reps": REPS,
        "events_processed": col_events,
        "columnar_serial_seconds": round(col_seconds, 3),
        "columnar_serial_cells_per_second": round(n_cells / col_seconds, 2),
        "columnar_serial_events_per_second": round(col_events / col_seconds, 1),
        "parallel_leg_run": parallel_leg_run,
        "parallel_workers": PARALLEL_WORKERS if parallel_leg_run else None,
        "singleton_parallel_seconds": None,
        "chunked_parallel_seconds": None,
        "parallel_speedup": None,
        "singleton_parallel_cells_per_second": None,
        "chunked_parallel_cells_per_second": None,
    }

    if parallel_leg_run:
        # The Cell API addresses full-trace conditions (no horizon axis),
        # so the dispatch comparison runs over the grid's distinct specs.
        unique_specs = list(dict.fromkeys(spec for spec, _ in conditions))
        cells = [Cell(spec, *SCHEDULER) for spec in unique_specs]
        # Singleton dispatch: one cell per task, no worker preload — every
        # worker rebuilds every workload it touches and every result is a
        # separate pool round-trip.
        singleton_seconds, singleton_metrics = _time_executor(
            cells,
            max_workers=PARALLEL_WORKERS,
            chunk_size=1,
            preload_workloads=False,
        )
        # Chunked dispatch with preload: tables ship once through the pool
        # initializer as flat buffers, cells travel in batches.
        chunked_seconds, chunked_metrics = _time_executor(
            cells, max_workers=PARALLEL_WORKERS
        )
        for s, c in zip(singleton_metrics, chunked_metrics):
            assert metrics_digest(s) == metrics_digest(c)
        payload.update(
            singleton_parallel_seconds=round(singleton_seconds, 3),
            chunked_parallel_seconds=round(chunked_seconds, 3),
            parallel_speedup=round(singleton_seconds / chunked_seconds, 2),
            singleton_parallel_cells_per_second=round(
                len(cells) / singleton_seconds, 2
            ),
            chunked_parallel_cells_per_second=round(len(cells) / chunked_seconds, 2),
        )

    out = Path(__file__).parent / "BENCH_sweep.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
