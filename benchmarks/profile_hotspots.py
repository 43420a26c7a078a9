"""cProfile harness for the simulation hot path.

The perf work in this repo is profile-driven: every optimization in the
event loop (``sim/engine.py``), the scheduler queue (``sched/base.py``),
and the table-native feed (``sim/feed.py``) started as a line in this
harness's output.  It profiles the same 90-cell CTC sweep that
``bench_hotloop.py`` times — table-native by default,
``--rows`` for the row-``Workload`` reference leg — and prints the top-N
functions by cumulative and by internal time.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotspots.py            # table feed
    PYTHONPATH=src python benchmarks/profile_hotspots.py --rows     # row feed
    PYTHONPATH=src python benchmarks/profile_hotspots.py --seeds 2 --top 15

For a one-off single simulation the same view is available as
``repro simulate --profile [N]``.
"""

import argparse
import cProfile
import pstats
import sys

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


def sweep(n_seeds: int, *, rows: bool) -> int:
    """Run the sweep once (cold cache); returns the number of cells."""
    clear_cache()
    kind, priority = SCHEDULER
    cells = 0
    for seed in SEEDS[:n_seeds]:
        for load in LOAD_SCALES:
            spec = WorkloadSpec(TRACE, N_JOBS, seed, load, ESTIMATE)
            for horizon in HORIZONS:
                source = truncate(make_workload_table(spec), max_jobs=horizon)
                if rows:
                    source = source.to_workload()
                simulate(source, make_scheduler(kind, priority))
                cells += 1
    return cells


def profile_sweep(
    n_seeds: int, *, rows: bool, top: int, stream=None
) -> cProfile.Profile:
    """Profile one sweep and print top-``top`` tables to ``stream``."""
    stream = stream or sys.stdout
    profiler = cProfile.Profile()
    profiler.enable()
    cells = sweep(n_seeds, rows=rows)
    profiler.disable()
    leg = "row-workload" if rows else "table-native"
    print(f"# {cells} cells, {leg} feed\n", file=stream)
    stats = pstats.Stats(profiler, stream=stream)
    for sort in ("cumulative", "tottime"):
        print(f"## top {top} by {sort}", file=stream)
        # "stdname" tiebreaks rows with equal times by function name, so
        # repeated runs (and diffs of saved output) list ties in one
        # stable order instead of hash order.
        stats.sort_stats(sort, "stdname").print_stats(top)
    return profiler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds",
        type=int,
        default=len(SEEDS),
        choices=range(1, len(SEEDS) + 1),
        help="generator seeds to sweep (15 cells each)",
    )
    parser.add_argument(
        "--rows",
        action="store_true",
        help="profile the row-Workload reference leg instead of the table feed",
    )
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    args = parser.parse_args(argv)
    profile_sweep(args.seeds, rows=args.rows, top=args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
