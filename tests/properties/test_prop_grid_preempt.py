"""Property tests for the grid and preemptive engines."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.grid.dispatch import LeastLoadedDispatch, RoundRobinDispatch
from repro.grid.engine import GridSimulator
from repro.grid.site import GridSite
from repro.preempt.engine import PreemptiveSimulator
from repro.preempt.scheduler import SelectiveSuspensionScheduler
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sim.engine import simulate
from repro.workload.job import Job, Workload

SITE_PROCS = 10


@st.composite
def workloads(draw, max_jobs=18):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += draw(st.floats(min_value=0.0, max_value=80.0))
        runtime = draw(st.floats(min_value=1.0, max_value=150.0))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=runtime * draw(st.floats(min_value=1.0, max_value=4.0)),
                procs=draw(st.integers(min_value=1, max_value=SITE_PROCS)),
            )
        )
    return Workload(tuple(jobs), max_procs=SITE_PROCS, name="prop-multi")


def _sites(n, scheduler_factory=EasyScheduler):
    return [GridSite(f"s{i}", SITE_PROCS, scheduler_factory()) for i in range(n)]


class TestGridProperties:
    @given(workloads(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_every_job_runs_exactly_once(self, wl, replication):
        result = GridSimulator(
            wl, _sites(3), dispatch=LeastLoadedDispatch(replication)
        ).run()
        assert sorted(r.job.job_id for r in result.completed) == [
            j.job_id for j in wl
        ]
        assert sum(site.jobs_run for site in result.sites) == len(wl)

    @given(
        workloads(),
        st.sampled_from([EasyScheduler, ConservativeScheduler, FCFSScheduler]),
    )
    @settings(max_examples=75, deadline=None)
    def test_single_site_grid_equals_local_run(self, wl, scheduler):
        grid = GridSimulator(
            wl, _sites(1, scheduler), dispatch=RoundRobinDispatch(1)
        ).run()
        local = simulate(wl, scheduler())

        def start_finish(result):
            return {r.job.job_id: (r.start_time, r.finish_time) for r in result.completed}

        assert start_finish(grid) == start_finish(local)

    @given(workloads(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_conservative_sites_survive_cancellation(self, wl, replication):
        result = GridSimulator(
            wl,
            _sites(2, ConservativeScheduler),
            dispatch=LeastLoadedDispatch(replication),
        ).run()
        assert result.metrics.overall.count == len(wl)

    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, wl):
        def once():
            return GridSimulator(
                wl, _sites(2), dispatch=LeastLoadedDispatch(2)
            ).run().start_times()

        assert once() == once()


class TestPreemptiveProperties:
    @given(workloads(), st.floats(min_value=1.1, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_all_jobs_complete_with_exact_work(self, wl, factor):
        result = PreemptiveSimulator(
            wl,
            SelectiveSuspensionScheduler(suspension_factor=factor, min_wait=20.0),
        ).run()
        assert result.metrics.overall.count == len(wl)
        for record in result.records:
            executed = sum(end - start for start, end in record.intervals)
            assert abs(executed - record.job.effective_runtime) < 1e-6

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_huge_factor_reduces_to_easy(self, wl):
        preemptive = PreemptiveSimulator(
            wl, SelectiveSuspensionScheduler(suspension_factor=1e12)
        ).run()
        easy = simulate(wl, EasyScheduler())
        assert preemptive.start_times() == easy.start_times()
        assert preemptive.total_suspensions == 0

    @given(workloads(), st.floats(min_value=1.1, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, wl, factor):
        def once():
            result = PreemptiveSimulator(
                wl,
                SelectiveSuspensionScheduler(
                    suspension_factor=factor, min_wait=20.0
                ),
            ).run()
            return [(r.job.job_id, r.intervals) for r in result.records]

        assert once() == once()
