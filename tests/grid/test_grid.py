"""Tests for the multi-cluster grid engine and dispatch policies."""

import pytest

from repro.errors import ConfigurationError
from repro.grid.dispatch import (
    LeastLoadedDispatch,
    RandomDispatch,
    RoundRobinDispatch,
)
from repro.grid.engine import GridSimulator
from repro.grid.site import GridSite
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.workload.generators.sdsc import SDSCGenerator
from repro.workload.job import Workload
from repro.workload.transforms import scale_load

from tests.conftest import make_job


def make_sites(n=3, procs=10, scheduler=EasyScheduler):
    return [GridSite(f"site{i}", procs, scheduler()) for i in range(n)]


def wl(jobs, max_procs=10):
    return Workload.from_jobs(jobs, max_procs=max_procs, name="grid-test")


class TestSite:
    def test_invalid_procs_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSite("x", 0, EasyScheduler())

    def test_load_signals(self):
        site = make_sites(1)[0]
        site.bind(None)
        assert site.queued_work == 0.0
        assert site.committed_work == 0.0


class TestDispatch:
    def test_replication_validated(self):
        with pytest.raises(ConfigurationError):
            LeastLoadedDispatch(0)

    def test_unfittable_job_rejected(self):
        sites = make_sites(2, procs=4)
        with pytest.raises(ConfigurationError, match="no site can"):
            LeastLoadedDispatch(1).choose(sites, make_job(1, procs=8))

    def test_least_loaded_prefers_idle_site(self):
        sites = make_sites(2)
        for site in sites:
            site.bind(None)
        # Put queued work on site0.
        sites[0].scheduler.bind(sites[0].machine)
        sites[0].scheduler._enqueue(make_job(99, runtime=1000.0, procs=4))
        chosen = LeastLoadedDispatch(1).choose(sites, make_job(1, procs=2))
        assert chosen[0].name == "site1"

    def test_round_robin_rotates(self):
        sites = make_sites(3)
        policy = RoundRobinDispatch(1)
        names = [policy.choose(sites, make_job(i))[0].name for i in range(1, 7)]
        assert names == ["site0", "site1", "site2", "site0", "site1", "site2"]

    def test_random_is_seeded(self):
        sites = make_sites(4)
        a = [RandomDispatch(2, seed=5).choose(sites, make_job(1)) for _ in range(1)]
        b = [RandomDispatch(2, seed=5).choose(sites, make_job(1)) for _ in range(1)]
        assert [[s.name for s in x] for x in a] == [[s.name for s in x] for x in b]

    def test_replication_capped_at_feasible_sites(self):
        sites = make_sites(2)
        chosen = LeastLoadedDispatch(5).choose(sites, make_job(1))
        assert len(chosen) == 2


def start_finish(result):
    return {r.job.job_id: (r.start_time, r.finish_time) for r in result.completed}


class TestGridEngine:
    def test_single_site_matches_local_simulation(self):
        from repro.sim.engine import simulate

        jobs = [
            make_job(i, submit=i * 5.0, runtime=30.0 + (i * 13) % 70, procs=(i * 3) % 8 + 1)
            for i in range(1, 40)
        ]
        workload = wl(list(jobs))
        for scheduler in (EasyScheduler, ConservativeScheduler, FCFSScheduler):
            local = simulate(workload, scheduler())
            grid = GridSimulator(
                workload, make_sites(1, scheduler=scheduler), dispatch=LeastLoadedDispatch(1)
            ).run()
            assert start_finish(grid) == start_finish(local), scheduler.name

    def test_exp_grid_configuration_pinned(self):
        # exp_grid's own run: SDSC, 600 jobs, seed 1, four 128-proc EASY
        # sites, least-loaded dispatch with K = 2.
        from repro.experiments.exp_grid import _grid_workload

        sites = [GridSite(f"site{i}", 128, EasyScheduler()) for i in range(4)]
        result = GridSimulator(
            _grid_workload(600, 1), sites, dispatch=LeastLoadedDispatch(2)
        ).run()
        assert [(s.name, s.jobs_run, s.cancelled_replicas) for s in result.sites] == [
            ("site0", 147, 77),
            ("site1", 194, 39),
            ("site2", 149, 127),
            ("site3", 110, 103),
        ]
        overall = result.metrics.overall
        assert repr(overall.mean_bounded_slowdown) == "104.82632228862099"
        assert repr(overall.max_turnaround) == "403615.18811337725"
        # Busy processor-seconds over 512 processors up to the last finish.
        assert repr(result.metrics.utilization) == "0.577529677806333"

    def test_all_jobs_complete_once(self):
        workload = wl(
            [
                make_job(i, submit=i * 2.0, runtime=40.0, procs=(i % 8) + 1)
                for i in range(1, 60)
            ]
        )
        result = GridSimulator(
            workload, make_sites(3), dispatch=LeastLoadedDispatch(2)
        ).run()
        assert result.metrics.overall.count == 59
        ids = sorted(r.job.job_id for r in result.completed)
        assert ids == list(range(1, 60))

    def test_replication_cancels_losers(self):
        workload = wl(
            [
                make_job(i, submit=float(i), runtime=100.0, procs=8)
                for i in range(1, 10)
            ]
        )
        result = GridSimulator(
            workload, make_sites(3), dispatch=LeastLoadedDispatch(3)
        ).run()
        cancelled = sum(site.cancelled_replicas for site in result.sites)
        # Jobs 1-3 start instantly at the first site they reach (8 procs on
        # an idle 10-proc machine), so no further replicas are created for
        # them; jobs 4-9 replicate to all 3 sites and cancel 2 losers each.
        assert cancelled == 2 * 6

    def test_each_job_runs_at_exactly_one_site(self):
        workload = wl(
            [make_job(i, submit=float(i), runtime=50.0, procs=4) for i in range(1, 30)]
        )
        result = GridSimulator(
            workload, make_sites(3), dispatch=RoundRobinDispatch(2)
        ).run()
        assignments = result.site_of()
        assert len(assignments) == 29
        total_run = sum(site.jobs_run for site in result.sites)
        assert total_run == 29

    def test_replication_helps_under_load(self):
        workload = scale_load(SDSCGenerator().generate(500, seed=3), 0.4)

        def run(k):
            sites = [GridSite(f"s{i}", 128, EasyScheduler()) for i in range(4)]
            return GridSimulator(
                workload, sites, dispatch=LeastLoadedDispatch(k)
            ).run()

        single = run(1).metrics.overall.mean_bounded_slowdown
        replicated = run(4).metrics.overall.mean_bounded_slowdown
        assert replicated <= single

    def test_conservative_sites_handle_cancellation(self):
        # Cancellation must release reservations cleanly under conservative.
        workload = wl(
            [
                make_job(i, submit=float(i), runtime=60.0 + i, estimate=2.0 * (60.0 + i), procs=(i % 9) + 1)
                for i in range(1, 50)
            ]
        )
        result = GridSimulator(
            workload,
            make_sites(3, scheduler=ConservativeScheduler),
            dispatch=LeastLoadedDispatch(2),
        ).run()
        assert result.metrics.overall.count == 49

    def test_nobf_sites_work(self):
        workload = wl(
            [make_job(i, submit=float(i), runtime=30.0, procs=(i % 9) + 1) for i in range(1, 30)]
        )
        result = GridSimulator(
            workload,
            make_sites(2, scheduler=FCFSScheduler),
            dispatch=RoundRobinDispatch(2),
        ).run()
        assert result.metrics.overall.count == 29

    def test_oversized_workload_rejected(self):
        workload = wl([make_job(1, procs=10)], max_procs=10)
        with pytest.raises(ConfigurationError, match="no site can fit"):
            GridSimulator(workload, make_sites(2, procs=8))

    def test_duplicate_site_names_rejected(self):
        sites = [GridSite("a", 8, EasyScheduler()), GridSite("a", 8, EasyScheduler())]
        with pytest.raises(ConfigurationError, match="duplicate"):
            GridSimulator(wl([make_job(1, procs=4)]), sites)

    def test_single_use(self):
        workload = wl([make_job(1, procs=2)])
        sim = GridSimulator(workload, make_sites(1))
        sim.run()
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            sim.run()

    def test_deterministic(self):
        workload = wl(
            [make_job(i, submit=float(i * 3), runtime=45.0, procs=(i % 7) + 1) for i in range(1, 40)]
        )

        def run():
            return GridSimulator(
                workload, make_sites(3), dispatch=LeastLoadedDispatch(2)
            ).run().start_times()

        assert run() == run()
