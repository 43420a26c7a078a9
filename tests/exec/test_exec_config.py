"""ExecConfig: validation and threading through executor/store."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    Cell,
    CellExecutor,
    DistExecutor,
    ExecConfig,
    ResultStore,
    default_executor,
    metrics_digest,
    run_cells,
    set_default_executor,
    simulate_cell,
)
from repro.experiments.config import WorkloadSpec


@pytest.fixture(autouse=True)
def reset_default_executor():
    yield
    set_default_executor(None)


def _cells(seeds, horizons=(40,)):
    return [
        Cell.make(WorkloadSpec("CTC", n_jobs, seed, 0.9), "easy")
        for seed in seeds
        for n_jobs in horizons
    ]


class TestExecConfig:
    def test_defaults_mirror_the_old_configure_defaults(self):
        config = ExecConfig()
        assert config.parallel == 1
        assert config.cache_dir is None
        assert config.progress is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"parallel": 0}, "parallel"),
            ({"memory_limit": 0}, "memory_limit"),
        ],
    )
    def test_validation_at_construction(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            ExecConfig(**kwargs)

    def test_retired_knobs_are_not_fields(self):
        for knob in (
            "chunk_size",
            "preload_workloads",
            "use_chains",
            "store_backend",
            "max_retries",
        ):
            with pytest.raises(TypeError):
                ExecConfig(**{knob: 1})

    def test_frozen_and_hashable(self):
        config = ExecConfig(parallel=2)
        with pytest.raises(Exception):
            config.parallel = 4
        assert hash(ExecConfig(parallel=2)) == hash(config)
        assert ExecConfig(parallel=2) == config

    def test_replace_revalidates(self):
        config = ExecConfig(parallel=4)
        assert config.replace(parallel=1).parallel == 1
        assert config.parallel == 4  # original untouched
        with pytest.raises(ConfigurationError):
            config.replace(parallel=-1)

    def test_progress_excluded_from_equality(self):
        assert ExecConfig(progress=print) == ExecConfig(progress=None)


class TestThreading:
    """The config is threaded explicitly through every layer."""

    def test_build_store(self, tmp_path):
        store = ExecConfig(cache_dir=tmp_path, memory_limit=7).build_store()
        assert store.cache_dir == tmp_path
        assert store.memory_limit == 7
        assert ExecConfig().build_store().backend is None

    def test_build_executor_carries_every_knob(self, tmp_path):
        seen = []
        serial = ExecConfig(
            cache_dir=tmp_path / "serial", progress=seen.append, memory_limit=5
        ).build_executor()
        assert type(serial) is CellExecutor
        assert serial.store.cache_dir == tmp_path / "serial"
        assert serial.store.memory_limit == 5
        assert serial.progress == seen.append

        fanned = ExecConfig(
            parallel=3, cache_dir=tmp_path / "fan", progress=seen.append, memory_limit=5
        ).build_executor()
        assert isinstance(fanned, DistExecutor)
        assert fanned.workers == 3
        assert fanned.queue.queue_dir == fanned.store.cache_dir == tmp_path / "fan"
        assert fanned.store.memory_limit == 5
        assert fanned.progress == seen.append
        fanned.close()

    def test_executor_accepts_explicit_store(self):
        store = ResultStore()
        assert CellExecutor(store=store).store is store

    def test_set_default_executor_from_config_and_instance(self):
        installed = set_default_executor(ExecConfig(parallel=2))
        assert default_executor() is installed
        assert installed.workers == 2
        installed.close()
        executor = CellExecutor()
        assert set_default_executor(executor) is executor
        assert default_executor() is executor
        set_default_executor(None)
        assert type(default_executor()) is CellExecutor
        with pytest.raises(TypeError):
            set_default_executor(42)

    def test_configured_executor_runs_cells(self):
        set_default_executor(ExecConfig())
        cell = Cell.make(WorkloadSpec(trace="CTC", n_jobs=50, seed=1), "easy")
        [metrics] = run_cells([cell])
        assert metrics.overall.count == 50


class TestParallelWithoutCacheDir:
    """``parallel=N`` with no ``cache_dir``: the queue lives in a
    temporary directory the executor owns."""

    @pytest.mark.slow
    def test_owned_directory_serves_the_batch_and_is_removed(self):
        cells = _cells(seeds=(1, 2, 3, 4))
        executor = ExecConfig(parallel=2).build_executor()
        owned = Path(executor.queue.queue_dir)
        assert owned.is_dir()
        metrics = executor.execute(cells)
        assert [metrics_digest(m) for m in metrics] == [
            metrics_digest(simulate_cell(cell).metrics) for cell in cells
        ]
        report = executor.last_report
        assert report.parallel_used is True
        assert report.parallel_reason == "dist queue, 2 local workers"
        assert (owned / "results.sqlite").exists()
        executor.close()
        assert not owned.exists()

    def test_single_chain_group_drains_inline_with_reason(self):
        # Three horizons of one condition are one lease: nothing to
        # share out, so no worker is spawned for it.
        cells = _cells(seeds=(1,), horizons=(30, 40, 50))
        executor = ExecConfig(parallel=4).build_executor()
        metrics = executor.execute(cells)
        assert [metrics_digest(m) for m in metrics] == [
            metrics_digest(simulate_cell(cell).metrics) for cell in cells
        ]
        report = executor.last_report
        assert report.parallel_requested is True
        assert report.parallel_used is False
        assert "single chain group" in report.parallel_reason
        assert "4 workers idle" in report.parallel_reason
        assert (report.chains, report.chain_forks) == (1, 2)
        executor.close()

    def test_workers_never_outnumber_chain_groups(self, monkeypatch):
        executor = ExecConfig(parallel=8).build_executor()
        spawned = []
        monkeypatch.setattr(
            executor, "_spawn_workers", lambda count: spawned.append(count) or []
        )
        executor.execute(_cells(seeds=(1, 2, 3)))
        assert spawned == [3]
        assert executor.last_report.parallel_reason == "dist queue, 3 local workers"
        executor.close()
