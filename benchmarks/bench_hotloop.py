"""End-to-end hot-loop benchmark: table-native feed vs the row reference.

``bench_sweep.py`` (retired with the pool dispatch it also measured)
froze the cost of the 90-cell CTC sweep *before* the table-native feed
existed — :data:`SWEEP_BASELINE_SECONDS`: its columnar leg still paid a full
``JobTable.to_workload()`` per cell (one validated ``Job`` per row) and
the pre-overhaul event loop (per-event attribute lookups, per-call
``getattr`` dispatch, list-``remove`` queue maintenance).  This
benchmark times the same grid through the current engine twice:

* **row leg** — ``truncate(table).to_workload()`` then simulate: the
  row-``Workload`` path kept as the differential reference (now itself
  accelerated by the trusted bulk constructor);
* **table leg** — hand the truncated ``JobTable`` straight to
  ``simulate``: jobs materialize lazily per arrival batch inside the
  feed, and nothing re-validates what the table proved at construction.

Both legs must produce *identical schedules* — per-cell metric digests
are compared exactly, not approximately.  The headline number is the
table leg's wall-clock against the **frozen** sweep baseline
(:data:`SWEEP_BASELINE_SECONDS`): that quotient is
the end-to-end win of this PR's engine overhaul, measured on the same
grid the baseline froze.  Results land in ``benchmarks/BENCH_hotloop.json``
(keys ending ``_per_second`` are gated by ``benchmarks/compare_bench.py``).
"""

import json
import os
import time
from pathlib import Path

from repro.exec import metrics_digest
from repro.hostinfo import host_provenance
from repro.experiments.config import WorkloadSpec
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

#: Timing repetitions per leg, interleaved (row, table, row, table, ...)
#: with the median reported.
REPS = 3

#: ``columnar_serial_seconds`` of the last ``BENCH_sweep.json`` (PR 4's
#: columnar pipeline on this grid: 90 cells, 202,500 events, median of 3
#: on a 1-CPU host) — the frozen "before" this benchmark's headline
#: divides by.
SWEEP_BASELINE_SECONDS = 2.183

#: Sanity floor for the table leg vs the checked-in sweep baseline.
#: Measured ~1.5x at merge time; the floor sits below that so only a
#: lost optimization trips the re-run, not a slow or noisy host (the
#: checked-in BENCH_hotloop.json records the real number, and the CI
#: gate compares throughputs against it with its own tolerance).
BASELINE_SPEEDUP_FLOOR = 1.15


def sweep_conditions() -> list[tuple[WorkloadSpec, int]]:
    """The same 90-cell grid the sweep baseline was frozen on."""
    return [
        (WorkloadSpec(TRACE, N_JOBS, seed, load, ESTIMATE), horizon)
        for seed in SEEDS
        for load in LOAD_SCALES
        for horizon in HORIZONS
    ]


def run_row_serial(conditions) -> int:
    """Row-``Workload`` reference leg; returns total events."""
    events = 0
    kind, priority = SCHEDULER
    for spec, horizon in conditions:
        workload = truncate(make_workload_table(spec), max_jobs=horizon).to_workload()
        events += simulate(workload, make_scheduler(kind, priority)).events_processed
    return events


def run_table_serial(conditions) -> int:
    """Table-native leg; returns total events."""
    events = 0
    kind, priority = SCHEDULER
    for spec, horizon in conditions:
        table = truncate(make_workload_table(spec), max_jobs=horizon)
        events += simulate(table, make_scheduler(kind, priority)).events_processed
    return events


def digest_sweep(conditions, *, table: bool) -> list[str]:
    """Per-cell metric digests for one feed (untimed verification pass)."""
    kind, priority = SCHEDULER
    digests = []
    for spec, horizon in conditions:
        source = truncate(make_workload_table(spec), max_jobs=horizon)
        if not table:
            source = source.to_workload()
        digests.append(
            metrics_digest(simulate(source, make_scheduler(kind, priority)).metrics)
        )
    return digests


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _time_leg(leg, conditions) -> tuple[float, int]:
    """(cold-cache wall-clock seconds, events) for one sweep."""
    clear_cache()
    started = time.perf_counter()
    events = leg(conditions)
    return time.perf_counter() - started, events


def test_hotloop_writes_bench_json():
    """Row vs table feed wall-clock + sweep-baseline speedup -> BENCH_hotloop.json."""
    conditions = sweep_conditions()

    row_times, table_times = [], []
    row_events = table_events = 0
    for _ in range(REPS):
        seconds, row_events = _time_leg(run_row_serial, conditions)
        row_times.append(seconds)
        seconds, table_events = _time_leg(run_table_serial, conditions)
        table_times.append(seconds)
    row_seconds = _median(row_times)
    table_seconds = _median(table_times)

    # Identical schedules, not merely similar aggregates: every cell's
    # full metric payload must hash identically across the two feeds
    # (verified outside the timed region — digesting is not feed work).
    assert row_events == table_events
    assert digest_sweep(conditions, table=False) == digest_sweep(
        conditions, table=True
    )

    baseline_seconds = SWEEP_BASELINE_SECONDS
    baseline_speedup = baseline_seconds / table_seconds

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
        "cpu_count": os.cpu_count() or 1,
        "reps": REPS,
        "events_processed": table_events,
        "row_serial_seconds": round(row_seconds, 3),
        "table_serial_seconds": round(table_seconds, 3),
        "row_serial_cells_per_second": round(n_cells / row_seconds, 2),
        "table_serial_cells_per_second": round(n_cells / table_seconds, 2),
        "row_serial_events_per_second": round(row_events / row_seconds, 1),
        "table_serial_events_per_second": round(table_events / table_seconds, 1),
        "sweep_baseline_seconds": baseline_seconds,
        "speedup_vs_sweep_baseline": round(baseline_speedup, 2),
    }

    out = Path(__file__).parent / "BENCH_hotloop.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    assert baseline_speedup >= BASELINE_SPEEDUP_FLOOR, (
        f"table-native feed no longer beats the frozen sweep baseline: "
        f"{table_seconds:.3f}s vs {baseline_seconds:.3f}s baseline "
        f"({baseline_speedup:.2f}x, floor {BASELINE_SPEEDUP_FLOOR}x); "
        "profile with benchmarks/profile_hotspots.py and compare against "
        "the checked-in BENCH_hotloop.json with benchmarks/compare_bench.py"
    )
