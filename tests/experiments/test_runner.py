"""Unit tests for the experiment runner (factories + caching)."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import Cell, default_store, run_cells
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    cached_workload,
    clear_cache,
    make_estimate_model,
    make_scheduler,
    make_workload,
)
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.workload.estimates import (
    ClampedEstimate,
    ExactEstimate,
    MultiplicativeEstimate,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


SMALL = WorkloadSpec(n_jobs=120, seed=3)


class TestEstimateModels:
    def test_exact(self):
        assert isinstance(make_estimate_model(SMALL), ExactEstimate)

    def test_multiplicative(self):
        model = make_estimate_model(SMALL.with_estimate("r2"))
        assert isinstance(model, MultiplicativeEstimate)
        assert model.factor == 2.0

    def test_user_is_clamped_to_trace_queue_limit(self):
        model = make_estimate_model(SMALL.with_estimate("user"))
        assert isinstance(model, ClampedEstimate)
        assert model.max_estimate == 64_800.0  # CTC 18 h limit


class TestWorkloadFactory:
    def test_ctc_machine_size(self):
        wl = make_workload(SMALL)
        assert wl.max_procs == 430
        assert len(wl) == 120

    def test_load_scaling_applied(self):
        normal = make_workload(WorkloadSpec(n_jobs=200, load_scale=1.0))
        high = make_workload(WorkloadSpec(n_jobs=200, load_scale=0.5))
        assert high.offered_load == pytest.approx(normal.offered_load * 2, rel=1e-6)

    def test_estimates_attached_for_user_regime(self):
        wl = make_workload(WorkloadSpec(n_jobs=300, estimate="user"))
        assert any(j.estimate > j.runtime for j in wl)

    def test_r2_estimates(self):
        wl = make_workload(SMALL.with_estimate("r2"))
        for job in wl:
            assert job.estimate == pytest.approx(2 * job.runtime)

    def test_estimate_rng_independent_of_workload_rng(self):
        # Same workload seed, different estimate regimes: shapes identical.
        exact = make_workload(SMALL)
        user = make_workload(SMALL.with_estimate("user"))
        assert [j.runtime for j in exact] == [j.runtime for j in user]
        assert [j.procs for j in exact] == [j.procs for j in user]


class TestSchedulerFactory:
    def test_kinds(self):
        assert isinstance(make_scheduler("cons"), ConservativeScheduler)
        assert isinstance(make_scheduler("easy", "SJF"), EasyScheduler)
        assert isinstance(make_scheduler("sel"), SelectiveScheduler)

    def test_priority_forwarded(self):
        assert make_scheduler("easy", "XF").priority.name == "XF"

    def test_options_forwarded(self):
        sched = make_scheduler("cons", compression="none")
        assert sched.compression == "none"
        sel = make_scheduler("sel", xfactor_threshold=3.0)
        assert sel.xfactor_threshold == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("magic")


def _run(spec, kind, priority="FCFS", **options):
    return run_cells([Cell.make(spec, kind, priority, **options)])[0]


class TestCellCache:
    def test_cell_results_are_cached(self):
        first = _run(SMALL, "easy", "FCFS")
        second = _run(SMALL, "easy", "FCFS")
        assert first is second

    def test_cache_distinguishes_options(self):
        a = _run(SMALL, "cons", "FCFS", compression="repack")
        b = _run(SMALL, "cons", "FCFS", compression="none")
        assert a is not b

    def test_workload_cache(self):
        assert cached_workload(SMALL) is cached_workload(SMALL)

    def test_clear_cache(self):
        first = _run(SMALL, "easy", "FCFS")
        clear_cache()
        assert _run(SMALL, "easy", "FCFS") is not first

    def test_run_cells_stores_under_the_cell_key(self):
        metrics = _run(SMALL, "easy", "SJF")
        stored = default_store().get(Cell(SMALL, "easy", "SJF"))
        assert stored is not None
        assert stored.metrics is metrics

    def test_run_cells_returns_the_direct_simulation_metrics(self):
        from repro.sim.engine import simulate

        metrics = _run(SMALL, "cons", "SJF")
        direct = simulate(
            make_workload(SMALL), make_scheduler("cons", "SJF")
        ).metrics
        assert metrics.overall.mean_wait == direct.overall.mean_wait
        assert (
            metrics.overall.mean_bounded_slowdown
            == direct.overall.mean_bounded_slowdown
        )
        assert len(metrics.records) == len(direct.records)

    def test_workload_cache_is_bounded(self):
        from repro.experiments.runner import WORKLOAD_CACHE_LIMIT, _workload_cache

        specs = [
            WorkloadSpec(n_jobs=10, seed=seed)
            for seed in range(WORKLOAD_CACHE_LIMIT + 5)
        ]
        for spec in specs:
            cached_workload(spec)
        assert len(_workload_cache) == WORKLOAD_CACHE_LIMIT
        # Least-recently-used entries (the earliest seeds) were evicted...
        assert specs[0] not in _workload_cache
        # ...and the most recent survive.
        assert specs[-1] in _workload_cache

    def test_workload_cache_lru_order(self):
        from repro.experiments.runner import WORKLOAD_CACHE_LIMIT, _workload_cache

        first = WorkloadSpec(n_jobs=10, seed=0)
        cached_workload(first)
        for seed in range(1, WORKLOAD_CACHE_LIMIT):
            cached_workload(WorkloadSpec(n_jobs=10, seed=seed))
        cached_workload(first)  # touch: now most-recently used
        cached_workload(WorkloadSpec(n_jobs=10, seed=WORKLOAD_CACHE_LIMIT))
        assert first in _workload_cache  # survived the eviction
        assert WorkloadSpec(n_jobs=10, seed=1) not in _workload_cache
