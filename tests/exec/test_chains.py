"""Chain planning, fallback, and reporting."""

from repro.errors import SimulationError
from repro.exec import Cell, CellExecutor, ResultStore, metrics_digest
from repro.exec.chains import (
    ChainStats,
    chain_key,
    plan_chains,
    run_chain,
    simulate_chunk_chained,
)
from repro.exec.executor import simulate_cell
from repro.experiments.config import WorkloadSpec


def _cell(n_jobs=100, seed=1, load=0.9, estimate="user", kind="cons",
          priority="FCFS", **options):
    return Cell.make(
        WorkloadSpec("CTC", n_jobs, seed, load, estimate), kind, priority, **options
    )


class TestPlanning:
    def test_groups_by_everything_but_horizon(self):
        cells = [
            _cell(n_jobs=200),
            _cell(n_jobs=100),
            _cell(n_jobs=100, seed=2),
            _cell(n_jobs=150),
            _cell(n_jobs=100, kind="easy"),
        ]
        groups = plan_chains(cells)
        assert [[c.spec.n_jobs for c in g] for g in groups] == [
            [100, 150, 200],  # horizon-ascending within the chain
            [100],  # different seed
            [100],  # different scheduler
        ]

    def test_first_seen_order_is_preserved(self):
        cells = [_cell(seed=3), _cell(seed=1), _cell(seed=2)]
        groups = plan_chains(cells)
        assert [g[0].spec.seed for g in groups] == [3, 1, 2]

    def test_chain_key_separates_options_and_regimes(self):
        base = _cell()
        assert chain_key(base) == chain_key(_cell(n_jobs=999))
        for other in (
            _cell(load=1.1),
            _cell(estimate="exact"),
            _cell(priority="SJF"),
            _cell(compression="none"),
        ):
            assert chain_key(base) != chain_key(other)


class TestRunChain:
    def test_singleton_group_counts_no_chain(self):
        stats = ChainStats()
        [(cell, stored)] = run_chain([_cell(n_jobs=80)], stats)
        assert stored.metrics == simulate_cell(_cell(n_jobs=80)).metrics
        assert stats.chains == 0 and stats.forks == 0

    def test_chain_results_match_independent(self):
        group = [_cell(n_jobs=n) for n in (80, 120, 160)]
        stats = ChainStats()
        results = run_chain(group, stats)
        assert [cell for cell, _ in results] == group
        for cell, stored in results:
            want = simulate_cell(cell)
            assert metrics_digest(stored.metrics) == metrics_digest(want.metrics)
            assert stored.events_processed == want.events_processed
        assert stats.chains == 1
        assert stats.chained_cells == 3
        assert stats.forks == 2
        assert stats.fallbacks == 0

    def test_checkpoint_failure_falls_back_to_independent(self, monkeypatch):
        import repro.exec.chains as chains

        def boom(group):
            raise SimulationError("induced")

        monkeypatch.setattr(chains, "_run_chain_forked", boom)
        group = [_cell(n_jobs=n) for n in (80, 120)]
        stats = ChainStats()
        results = run_chain(group, stats)
        assert stats.fallbacks == 1 and stats.chains == 0
        for cell, stored in results:
            want = simulate_cell(cell)
            assert metrics_digest(stored.metrics) == metrics_digest(want.metrics)

    def test_simulate_chunk_chained_preserves_input_order(self):
        chunk = [
            _cell(n_jobs=120),
            _cell(n_jobs=80, seed=2),
            _cell(n_jobs=80),
        ]
        storeds, stats = simulate_chunk_chained(chunk)
        assert len(storeds) == 3
        for cell, stored in zip(chunk, storeds):
            want = simulate_cell(cell)
            assert metrics_digest(stored.metrics) == metrics_digest(want.metrics)
        assert stats.chains == 1 and stats.chained_cells == 2


class TestReportRendering:
    def test_render_mentions_chains_only_when_used(self):
        executor = CellExecutor(store=ResultStore())
        executor.execute([_cell(n_jobs=n) for n in (80, 120)])
        assert "chains" in executor.last_report.render()
        solo = CellExecutor(store=ResultStore())
        solo.execute([_cell(n_jobs=80)])
        assert "chains" not in solo.last_report.render()

    def test_session_absorbs_chain_counters(self):
        executor = CellExecutor(store=ResultStore())
        executor.execute([_cell(n_jobs=n) for n in (80, 120)])
        assert executor.session.chains == 1
        assert executor.session.chain_forks == 1
