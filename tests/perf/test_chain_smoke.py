"""Perf smoke test: chains share each prefix once — counted, not timed.

A two-condition, three-horizon grid is two chains: each runs one trunk
and forks twice.  The executor's report must say exactly that, nothing
may fall back, and every forked cell must equal its from-scratch
``simulate_cell`` — digest *and* event count.  Equal, not fewer: a
resumed branch carries its prefix's events in its own count, so the
saving shows up in wall-clock (``benchmarks/bench_chain.py``) while the
per-cell facts stay those of an independent run.  Only a lost
optimization (chains silently falling back per group, a group split in
two) changes these counts; CI jitter cannot.
"""

import pytest

from repro.exec import Cell, CellExecutor, ResultStore, metrics_digest, simulate_cell
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import clear_cache

from benchmarks.bench_chain import ESTIMATE, SCHEDULER, TRACE


@pytest.mark.perf
def test_chained_grid_forks_each_prefix_once():
    cells = [
        Cell(WorkloadSpec(TRACE, horizon, 1, load, ESTIMATE), *SCHEDULER)
        for load in (0.9, 1.2)
        for horizon in (300, 400, 500)
    ]
    clear_cache()
    executor = CellExecutor(store=ResultStore())
    chained = executor.execute(cells)

    report = executor.last_report
    assert report.chains == 2
    assert report.chained_cells == 6
    assert report.chain_forks == 4
    assert report.chain_fallbacks == 0
    for cell, metrics in zip(cells, chained):
        independent = simulate_cell(cell)
        assert metrics_digest(metrics) == metrics_digest(independent.metrics)
        assert executor.store.get(cell).events_processed == independent.events_processed
