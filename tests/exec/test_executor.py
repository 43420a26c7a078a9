"""CellExecutor: determinism, dedup, error propagation, report timing."""

import pytest

from repro.errors import ExperimentError, ReproError
from repro.exec import (
    Cell,
    CellExecutor,
    DistExecutor,
    ExecConfig,
    ExecutionReport,
    ResultStore,
    default_executor,
    metrics_digest,
    run_cells,
    set_default_executor,
    simulate_cell,
)
from repro.experiments import registry
from repro.experiments.common import CellGrid
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
    @pytest.mark.slow
    def test_parallel_results_identical_to_serial(self, tmp_path):
        # The acceptance bar: exact float equality, not approximate, on
        # every path a cell can take — in-process, the queue drained
        # inline, the queue drained by spawned workers, and what
        # ``--parallel 2`` builds.
        cells = _grid(n_jobs=60)
        assert len(cells) >= 12
        serial = CellExecutor(store=ResultStore()).execute(cells)
        executors = [
            DistExecutor(tmp_path / "inline", workers=0),
            DistExecutor(tmp_path / "spawned", workers=2),
            ExecConfig(parallel=2, cache_dir=tmp_path / "config").build_executor(),
        ]
        for executor in executors:
            parallel = executor.execute(cells)
            executor.close()
            assert [metrics_digest(m) for m in parallel] == [
                metrics_digest(m) for m in serial
            ]
        for spawning in executors[1:]:
            assert spawning.last_report.parallel_used is True
            assert spawning.last_report.parallel_reason == "dist queue, 2 local workers"

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


class TestCrashResilience:
    """Worker crashes are the queue's business (``test_dist.py``,
    ``test_queue.py``: lease expiry, steal, attempt cap, poisoning).
    What the executor itself owes is that a deterministic failure
    surfaces at once instead of being retried."""

    def test_deterministic_simulation_error_not_retried(self, monkeypatch):
        import repro.exec.chains as chains

        spec = WorkloadSpec("CTC", 60, 1, 0.75, "exact")
        bad = Cell.make(spec, "cons", "FCFS", compression="bogus")
        attempts = []
        real = chains._simulate_independent

        def counting(cell):
            attempts.append(cell)
            return real(cell)

        monkeypatch.setattr(chains, "_simulate_independent", counting)
        with pytest.raises(ReproError):
            CellExecutor(store=ResultStore()).execute([bad, *_grid(n_jobs=60)[:1]])
        assert attempts == [bad]  # surfaced immediately, no retry

    def test_serial_path_raises_too(self):
        spec = WorkloadSpec("CTC", 60, 1, 0.75, "exact")
        bad = Cell.make(spec, "cons", "FCFS", compression="bogus")
        with pytest.raises(ReproError):
            CellExecutor(store=ResultStore()).execute([bad])


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


#: The experiments whose ``run()`` reads a declared cell grid.
_DECLARED = [
    experiment_id
    for experiment_id, module in registry._MODULES.items()
    if hasattr(module, "declare")
]


class TestPlanCompleteness:
    """Each declaration is the whole grid its experiment reads, and only it."""

    def test_every_cell_shaped_experiment_declares(self):
        assert len(_DECLARED) == 12
        assert {"figure1", "selective", "depth", "schedulers"} <= set(_DECLARED)

    @pytest.mark.parametrize("experiment_id", _DECLARED)
    def test_prefetched_plan_leaves_no_misses(self, experiment_id, monkeypatch):
        from repro.experiments.config import ExperimentParams

        params = ExperimentParams(
            n_jobs=150, seeds=(1, 2), load_scale=0.75, traces=("CTC",)
        )
        read = []
        real_runs = CellGrid.runs

        def recording_runs(grid, key):
            read.append(key)
            return real_runs(grid, key)

        monkeypatch.setattr(CellGrid, "runs", recording_runs)
        executor = set_default_executor(ExecConfig(parallel=1))
        try:
            run_cells(registry.collect_cells([experiment_id], params))
            simulated_before = executor.session.simulated
            batches = []
            real_execute = executor.execute

            def counting_execute(cells):
                batches.append(list(cells))
                return real_execute(batches[-1])

            monkeypatch.setattr(executor, "execute", counting_execute)
            registry.run_experiment(experiment_id, params)
            assert executor.session.simulated == simulated_before, (
                f"{experiment_id} simulated cells its declaration does not name"
            )
        finally:
            set_default_executor(None)
        declared = registry._MODULES[experiment_id].declare(params)
        assert len(batches) == 1, f"{experiment_id} made {len(batches)} batches"
        assert batches[0] == declared.cells()
        assert set(read) == set(declared._cells), "a declared key is never read"
        with pytest.raises(ExperimentError, match="not declared"):
            declared.runs(("undeclared",))


class TestReportTiming:
    def test_events_per_second_uses_sim_elapsed(self):
        report = ExecutionReport(
            events_processed=100, elapsed_seconds=10.0, sim_elapsed_seconds=2.0
        )
        assert report.events_per_second == 50.0

    def test_events_per_second_zero_when_nothing_simulated(self):
        report = ExecutionReport(elapsed_seconds=5.0)
        assert report.events_per_second == 0.0

    def test_absorb_accumulates_sim_elapsed(self):
        total = ExecutionReport(sim_elapsed_seconds=1.0)
        total.absorb(ExecutionReport(sim_elapsed_seconds=2.5))
        assert total.sim_elapsed_seconds == 3.5

    def test_cached_batch_accrues_no_sim_elapsed(self):
        cells = _grid(n_jobs=60)[:2]
        executor = CellExecutor(store=ResultStore())
        executor.execute(cells)
        first = executor.last_report
        assert 0.0 < first.sim_elapsed_seconds <= first.elapsed_seconds
        executor.execute(cells)  # fully cached now
        second = executor.last_report
        assert second.sim_elapsed_seconds == 0.0
        assert second.events_per_second == 0.0
        assert second.elapsed_seconds > 0.0

    def test_mixed_batch_sim_elapsed_bounded_by_elapsed(self):
        cells = _grid(n_jobs=60)[:3]
        executor = CellExecutor(store=ResultStore())
        executor.execute(cells[:1])
        executor.execute(cells)  # one warm, two fresh
        report = executor.last_report
        assert report.cache_hits == 1
        assert report.simulated == 2
        assert 0.0 < report.sim_elapsed_seconds <= report.elapsed_seconds
