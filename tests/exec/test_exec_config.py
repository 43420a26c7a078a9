"""ExecConfig: validation and threading through executor/store."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    Cell,
    CellExecutor,
    ExecConfig,
    ResultStore,
    default_executor,
    run_cells,
    set_default_executor,
)
from repro.experiments.config import WorkloadSpec


@pytest.fixture(autouse=True)
def reset_default_executor():
    yield
    set_default_executor(None)


class TestExecConfig:
    def test_defaults_mirror_the_old_configure_defaults(self):
        config = ExecConfig()
        assert config.parallel == 1
        assert config.cache_dir is None
        assert config.use_chains is True
        assert config.store_backend == "auto"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"parallel": 0}, "parallel"),
            ({"max_retries": -1}, "max_retries"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"store_backend": "bogus"}, "store backend"),
            ({"memory_limit": 0}, "memory_limit"),
        ],
    )
    def test_validation_at_construction(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            ExecConfig(**kwargs)

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
        config = ExecConfig(
            cache_dir=tmp_path, store_backend="sqlite", memory_limit=7
        )
        store = config.build_store()
        assert store.backend_kind == "sqlite"
        assert store.memory_limit == 7
        assert ResultStore.from_config(config).backend_kind == "sqlite"

    def test_build_executor_carries_every_knob(self, tmp_path):
        config = ExecConfig(
            parallel=3,
            cache_dir=tmp_path,
            max_retries=2,
            chunk_size=5,
            preload_workloads=False,
            use_chains=False,
            store_backend="json",
        )
        executor = config.build_executor()
        assert executor.max_workers == 3
        assert executor.max_retries == 2
        assert executor.chunk_size == 5
        assert executor.preload_workloads is False
        assert executor.use_chains is False
        assert executor.store.backend_kind == "json"

    def test_executor_accepts_explicit_store(self):
        store = ResultStore()
        executor = CellExecutor.from_config(ExecConfig(), store=store)
        assert executor.store is store

    def test_set_default_executor_from_config_and_instance(self):
        installed = set_default_executor(ExecConfig(parallel=2))
        assert default_executor() is installed
        assert installed.max_workers == 2
        executor = CellExecutor()
        assert set_default_executor(executor) is executor
        assert default_executor() is executor
        set_default_executor(None)
        assert default_executor().max_workers == 1
        with pytest.raises(TypeError):
            set_default_executor(42)

    def test_configured_executor_runs_cells(self):
        set_default_executor(ExecConfig())
        cell = Cell.make(WorkloadSpec(trace="CTC", n_jobs=50, seed=1), "easy")
        [metrics] = run_cells([cell])
        assert metrics.overall.count == 50
