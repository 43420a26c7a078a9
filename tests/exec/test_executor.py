"""CellExecutor: determinism, dedup, crash retry, error propagation."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ReproError
from repro.exec import (
    Cell,
    CellExecutor,
    ExecConfig,
    ResultStore,
    default_executor,
    metrics_digest,
    run_cells,
    set_default_executor,
    simulate_cell,
)
from repro.experiments.config import WorkloadSpec


def _grid(n_jobs=120):
    """Twelve distinct cells spanning traces, seeds, and disciplines."""
    cells = []
    for trace in ("CTC", "SDSC"):
        for seed in (1, 2):
            spec = WorkloadSpec(trace, n_jobs, seed, 0.75, "user")
            for kind, priority in (("cons", "FCFS"), ("easy", "SJF"), ("easy", "XF")):
                cells.append(Cell(spec, kind, priority))
    return cells


class TestDeterminism:
    def test_parallel_results_identical_to_serial(self):
        # The acceptance bar: exact float equality, not approximate.
        cells = _grid()
        assert len(cells) >= 12
        serial = CellExecutor(max_workers=1, store=ResultStore()).execute(cells)
        parallel = CellExecutor(max_workers=4, store=ResultStore()).execute(cells)
        for s, p in zip(serial, parallel):
            assert metrics_digest(s) == metrics_digest(p)

    def test_results_in_input_order(self):
        cells = _grid(n_jobs=60)[:4]
        executor = CellExecutor(store=ResultStore())
        metrics = executor.execute(cells)
        singles = [simulate_cell(c).metrics for c in cells]
        for got, want in zip(metrics, singles):
            assert metrics_digest(got) == metrics_digest(want)


class TestDedupAndCaching:
    def test_duplicates_simulated_once(self):
        a, b = _grid(n_jobs=60)[:2]
        executor = CellExecutor(store=ResultStore())
        metrics = executor.execute([a, b, a, a])
        assert len(metrics) == 4
        assert executor.last_report.simulated == 2
        assert metrics_digest(metrics[0]) == metrics_digest(metrics[2])

    def test_second_batch_fully_cached(self):
        cells = _grid(n_jobs=60)[:3]
        executor = CellExecutor(store=ResultStore())
        executor.execute(cells)
        executor.execute(cells)
        assert executor.last_report.cache_hits == 3
        assert executor.last_report.simulated == 0
        assert executor.last_report.cache_hit_rate == 1.0
        # Cache hits contribute no fresh simulation events.
        assert executor.last_report.events_processed == 0
        assert executor.session.cells_total == 6

    def test_progress_called_per_completion(self):
        seen = []
        cells = _grid(n_jobs=60)[:3]
        executor = CellExecutor(store=ResultStore(), progress=seen.append)
        executor.execute(cells)
        assert len(seen) == 3
        assert seen[-1].completed == 3
        assert "cells 3/3" in seen[-1].render()


class _FlakyPool:
    """Fake pool whose futures fail with BrokenProcessPool N times per cell."""

    def __init__(self, failures_per_cell, counts):
        self.failures_per_cell = failures_per_cell
        self.counts = counts  # shared dict: cell -> submissions seen

    def submit(self, fn, cell):
        self.counts[cell] = self.counts.get(cell, 0) + 1
        future = Future()
        if self.counts[cell] <= self.failures_per_cell:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(cell))
        return future

    def shutdown(self, wait=False, cancel_futures=False):
        pass


class TestCrashResilience:
    def test_broken_pool_retries_and_recovers(self):
        cells = _grid(n_jobs=60)[:2]
        counts = {}
        executor = CellExecutor(
            max_workers=2,
            store=ResultStore(),
            max_retries=1,
            pool_factory=lambda workers: _FlakyPool(1, counts),
        )
        metrics = executor.execute(cells)
        assert executor.last_report.retries == 2
        assert all(counts[c] == 2 for c in cells)  # failed once, retried once
        for got, cell in zip(metrics, cells):
            assert metrics_digest(got) == metrics_digest(simulate_cell(cell).metrics)

    def test_exhausted_retries_fall_back_in_process(self):
        cells = _grid(n_jobs=60)[:2]
        counts = {}
        executor = CellExecutor(
            max_workers=2,
            store=ResultStore(),
            max_retries=0,
            pool_factory=lambda workers: _FlakyPool(10**9, counts),
        )
        metrics = executor.execute(cells)  # every pool attempt fails
        assert len(metrics) == 2
        assert executor.last_report.simulated == 2
        for got, cell in zip(metrics, cells):
            assert metrics_digest(got) == metrics_digest(simulate_cell(cell).metrics)

    def test_deterministic_simulation_error_not_retried(self):
        spec = WorkloadSpec("CTC", 60, 1, 0.75, "exact")
        bad = Cell.make(spec, "cons", "FCFS", compression="bogus")
        counts = {}
        executor = CellExecutor(
            max_workers=2,
            store=ResultStore(),
            pool_factory=lambda workers: _FlakyPool(0, counts),
        )
        with pytest.raises(ReproError):
            executor.execute([bad, *_grid(n_jobs=60)[:1]])
        assert counts[bad] == 1  # surfaced immediately, no retry

    def test_serial_path_raises_too(self):
        spec = WorkloadSpec("CTC", 60, 1, 0.75, "exact")
        bad = Cell.make(spec, "cons", "FCFS", compression="bogus")
        with pytest.raises(ReproError):
            CellExecutor(store=ResultStore()).execute([bad])


class TestValidation:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            CellExecutor(max_workers=0)
        with pytest.raises(ValueError):
            CellExecutor(max_retries=-1)


class TestDefaultExecutor:
    def test_configure_replaces_default(self):
        try:
            executor = set_default_executor(ExecConfig(parallel=1))
            assert default_executor() is executor
            [metrics] = run_cells(_grid(n_jobs=60)[:1])
            assert executor.session.completed == 1
            assert metrics.overall.mean_bounded_slowdown > 0
        finally:
            set_default_executor(None)  # leave a fresh default behind

    def test_run_cells_accepts_explicit_executor(self):
        executor = CellExecutor(store=ResultStore())
        cells = _grid(n_jobs=60)[:2]
        metrics = run_cells(cells, executor=executor)
        assert len(metrics) == 2
        assert executor.session.completed == 2


class TestPlanCompleteness:
    """Each cell plan must cover every cell its experiment actually runs."""

    @pytest.mark.parametrize("experiment_id", ["figure1", "selective", "depth"])
    def test_prefetched_plan_leaves_no_misses(self, experiment_id):
        from repro.experiments.config import ExperimentParams
        from repro.experiments.registry import CELL_PLANS, EXPERIMENTS

        params = ExperimentParams(
            n_jobs=150, seeds=(1, 2), load_scale=0.75, traces=("CTC",)
        )
        executor = set_default_executor(ExecConfig(parallel=1))
        try:
            run_cells(CELL_PLANS[experiment_id](params))
            simulated_before = executor.session.simulated
            EXPERIMENTS[experiment_id](params)
            assert executor.session.simulated == simulated_before, (
                f"{experiment_id} simulated cells its plan did not declare"
            )
        finally:
            set_default_executor(None)
