"""Perf smoke test: a real spawned worker must drain the queue briskly.

Enqueues 150 distinct single-cell chain groups and drains them with one
spawned worker process, asserting a deliberately generous throughput
floor, so only a lost optimization (e.g. a claim transaction per cell
instead of per batch) trips it, not CI jitter or process-startup noise.
Wall-clock belongs to the ``cached_sweep`` workload of
``benchmarks/e2e``, which also times a two-worker drain.

A coordinator that drains its own misses inline keeps the results it
simulated: a cold inline ``execute`` reads none of them back from the
store (zero disk hits, counted), and only a new executor's warm pass
decodes them.
"""

import multiprocessing
import time

import pytest

from repro.exec import Cell, CellQueue, DistExecutor
from repro.exec.dist import worker_process_main
from repro.exec.queue import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS
from repro.experiments.config import WorkloadSpec

N_CELLS = 150

#: cells/s floor including spawn startup.
MIN_CELLS_PER_SECOND = 5.0

#: Groups per claim batch: the cells are singleton groups, so larger
#: batches amortize the claim transaction.
BATCH_GROUPS = 16


def synthetic_cells(n: int) -> list[Cell]:
    """``n`` distinct cells that each plan into their own chain group:
    every cell has its own generator seed, so the queue sees ``n``
    independent lease units, the worst case for claim overhead."""
    kinds = ("easy", "cons", "nobf")
    return [
        Cell(
            WorkloadSpec("CTC", 60 + (i % 31), seed=i + 1, load_scale=1.0),
            kinds[i % 3],
            "FCFS",
        )
        for i in range(n)
    ]


@pytest.mark.perf
def test_single_worker_drains_synthetic_grid_briskly(tmp_path):
    cells = synthetic_cells(N_CELLS)
    queue = CellQueue(tmp_path)
    assert queue.enqueue(cells).enqueued == N_CELLS

    worker = multiprocessing.get_context("spawn").Process(
        target=worker_process_main,
        args=(
            str(tmp_path),
            "smoke:w0",
            DEFAULT_LEASE_SECONDS,
            DEFAULT_MAX_ATTEMPTS,
            BATCH_GROUPS,
            0.2,
        ),
        daemon=True,
    )
    # The drain timer spans process start to join: startup is part of
    # what a distributed sweep pays.
    started = time.perf_counter()
    worker.start()
    worker.join(timeout=120)
    drain_seconds = time.perf_counter() - started

    assert worker.exitcode == 0
    stats = queue.stats()
    assert stats.done_cells == N_CELLS, stats.render()
    assert stats.poisoned_cells == 0, stats.render()
    queue.close()
    rate = N_CELLS / drain_seconds
    assert rate >= MIN_CELLS_PER_SECOND, (
        f"queue drain slowed to {rate:.1f} cells/s (floor "
        f"{MIN_CELLS_PER_SECOND}); time the cached_sweep workload with "
        "benchmarks/e2e/run.py"
    )


@pytest.mark.perf
def test_cold_inline_drain_reads_back_nothing(tmp_path):
    cells = synthetic_cells(30)
    cold = DistExecutor(tmp_path, workers=0)
    first = cold.execute(cells)
    assert cold.last_report.simulated == len(cells)
    assert (cold.store.stats.disk_hits, cold.store.stats.misses) == (0, len(cells))
    # What it simulated is in its memory layer, as a read-back left it.
    assert cold.execute(cells) == first
    assert cold.store.stats.memory_hits == len(cells)
    cold.close()

    warm = DistExecutor(tmp_path, workers=0)
    assert warm.execute(cells) == first
    assert (warm.store.stats.disk_hits, warm.store.stats.misses) == (len(cells), 0)
    warm.close()
