"""Chained sweep benchmark: forked prefix-sharing vs independent cells.

A horizon sweep (the standard convergence check: simulate growing
windows of the same trace until the metric stabilizes) re-simulates a
shared arrival prefix once per horizon.  The chain executor
(``repro.exec.chains``) instead runs the longest horizon as a trunk,
pauses at each shorter horizon's boundary (``Simulator.run_until``),
forks a snapshot, and drains only the in-flight jobs on the branch —
so each shared prefix is simulated once per ``(seed, load)`` condition
instead of once per horizon.

This benchmark times the paper's 3-horizon CTC sweep grid twice:

* **independent leg** — a ``simulate_cell`` loop: every cell is a full,
  standalone simulation (what a chain falls back to, and the reference
  the equivalence suites compare against);
* **chained leg** — ``CellExecutor`` (the living executor): cells
  differing only by horizon share one forked trunk.

Both legs produce byte-identical metrics (pinned per cell below and,
exhaustively, by ``tests/properties/test_prop_chain_equivalence.py``).
The scheduler is conservative backfilling under FCFS: profile repacking
makes its simulations expensive enough that the sweep is
simulation-dominated, which is the regime chains exist for.  (Under
``nobf`` the same grid is dominated by workload generation — paid
equally in both legs — and chains shave only ~1.2x.)

Wall-clock, cells/s, and events/s for each leg land in
``benchmarks/BENCH_chain.json`` (keys ending ``events_per_second`` are
gated by ``benchmarks/compare_bench.py``).
"""

import json
import os
import time
from pathlib import Path

from repro.exec import Cell, CellExecutor, ResultStore, metrics_digest, simulate_cell
from repro.hostinfo import host_provenance
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import clear_cache

TRACE = "CTC"
SEEDS = (1, 2, 3, 4, 5, 6)
LOAD_SCALES = (0.8, 0.94, 1.08, 1.22, 1.36)
HORIZONS = (750, 1125, 1500)
ESTIMATE = "user"
SCHEDULER = ("cons", "FCFS")

#: Timing repetitions per leg.  Legs are interleaved (independent,
#: chained, independent, ...) so slow host phases hit both equally, and
#: the *median* wall-clock is reported, robust to tail noise either way.
REPS = 3

#: Sanity floor for the serial speedup — deliberately below the
#: measured ~1.8x so only a lost optimization trips it, not host noise.
#: The theoretical ceiling for a 750/1125/1500 grid is ~2.25x (3375
#: simulated jobs per condition collapse to ~1500 plus two drains), less
#: the workload-generation share both legs pay equally.
SERIAL_SPEEDUP_FLOOR = 1.5


def sweep_cells() -> list[Cell]:
    """The 3-horizon sweep grid: 90 cells in 30 three-cell chains.

    Six seeds x five offered loads, each simulated at three growing
    horizons of the same trace — the grid shape every convergence check
    in the paper uses, and the best case for chains: within each
    ``(seed, load)`` condition the three horizons are exact arrival
    prefixes of one another.
    """
    return [
        Cell(WorkloadSpec(TRACE, horizon, seed, load, ESTIMATE), *SCHEDULER)
        for seed in SEEDS
        for load in LOAD_SCALES
        for horizon in HORIZONS
    ]


def _time_independent(cells: list[Cell]) -> tuple[float, int, list]:
    """(seconds, events, metrics) for one from-scratch simulation per cell."""
    clear_cache()
    started = time.perf_counter()
    storeds = [simulate_cell(cell) for cell in cells]
    seconds = time.perf_counter() - started
    events = sum(stored.events_processed for stored in storeds)
    return seconds, events, [stored.metrics for stored in storeds]


def _time_executor(cells: list[Cell]) -> tuple[float, CellExecutor, list]:
    clear_cache()
    executor = CellExecutor(store=ResultStore())
    started = time.perf_counter()
    metrics = executor.execute(cells)
    return time.perf_counter() - started, executor, metrics


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_chained_sweep_writes_bench_json():
    """Independent vs chained sweep wall-clock -> BENCH_chain.json."""
    cells = sweep_cells()

    plain_times, chain_times = [], []
    plain_events = chain_events = 0
    plain_metrics = chain_metrics = None
    report = None
    for _ in range(REPS):
        seconds, plain_events, plain_metrics = _time_independent(cells)
        plain_times.append(seconds)
        seconds, executor, chain_metrics = _time_executor(cells)
        chain_times.append(seconds)
        chain_events = executor.last_report.events_processed
        report = executor.last_report
    plain_seconds = _median(plain_times)
    chain_seconds = _median(chain_times)

    # Chains must be a pure execution strategy: identical per-cell
    # results, identical per-cell event counts, nothing falling back.
    for a, b in zip(plain_metrics, chain_metrics):
        assert metrics_digest(a) == metrics_digest(b)
    assert plain_events == chain_events
    assert report.chains == len(SEEDS) * len(LOAD_SCALES)
    assert report.chained_cells == len(cells)
    assert report.chain_fallbacks == 0

    n_cells = len(cells)
    serial_speedup = plain_seconds / chain_seconds
    payload = {
        "schema": 1,
        "host": host_provenance(),
        "trace": TRACE,
        "n_seeds": len(SEEDS),
        "load_scales": list(LOAD_SCALES),
        "horizons": list(HORIZONS),
        "estimate": ESTIMATE,
        "n_cells": n_cells,
        "scheduler": list(SCHEDULER),
        "cpu_count": os.cpu_count() or 1,
        "reps": REPS,
        "events_processed": plain_events,
        "chains": report.chains,
        "chain_forks": report.chain_forks,
        "independent_serial_seconds": round(plain_seconds, 3),
        "chained_serial_seconds": round(chain_seconds, 3),
        "serial_speedup": round(serial_speedup, 2),
        "independent_serial_cells_per_second": round(n_cells / plain_seconds, 2),
        "chained_serial_cells_per_second": round(n_cells / chain_seconds, 2),
        "independent_serial_events_per_second": round(plain_events / plain_seconds, 1),
        "chained_serial_events_per_second": round(chain_events / chain_seconds, 1),
    }

    out = Path(__file__).parent / "BENCH_chain.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    assert serial_speedup >= SERIAL_SPEEDUP_FLOOR, (
        f"chained sweep speedup collapsed: {serial_speedup:.2f}x "
        f"(floor {SERIAL_SPEEDUP_FLOOR}x); compare against the checked-in "
        "BENCH_chain.json with benchmarks/compare_bench.py"
    )
