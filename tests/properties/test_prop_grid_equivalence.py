"""Differential tests: the shipped grid engine vs the frozen one.

The shipped :class:`~repro.grid.engine.GridSimulator` runs a metascheduler
on the one :class:`~repro.sim.engine.Simulator` loop instead of a loop of
its own.  That may not change a schedule, so ``tests/oracles/grid.py``
freezes the grid's own event loop, and every shipped run must reproduce
its frozen original exactly: per job, in completion order, the winning
site, the start and the finish; per site, the :class:`SiteStats`; the
site assignments; the overall, per-category and per-estimate-quality
metric summaries and the makespan; and the order of every hook call the
sites receive.  The matrix: EASY, conservative and no-backfill sites,
one to four sites, K from 1 to 4, least-loaded, round-robin and random
dispatch.

Times are drawn on a 5-second grid, so finishes, reservations, timers and
arrivals of different sites share instants: the same-timestamp order is
what a second loop could get wrong.  ``exp_grid``'s own configuration
runs at the end, on EASY and conservative sites.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.grid.engine as shipped
from repro.grid.dispatch import LeastLoadedDispatch, RandomDispatch, RoundRobinDispatch
from repro.grid.site import GridSite
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.workload.job import Job, Workload

from tests.oracles import grid as frozen

DISCIPLINES = {
    "easy": EasyScheduler,
    "cons": ConservativeScheduler,
    "nobf": FCFSScheduler,
}
DISPATCHES = {
    "least-loaded": lambda k, seed: LeastLoadedDispatch(k),
    "round-robin": lambda k, seed: RoundRobinDispatch(k),
    "random": lambda k, seed: RandomDispatch(k, seed=seed),
}
MAX_SITE_PROCS = 10


@st.composite
def grids(draw, max_jobs=24):
    """A workload on a 5-second grid plus the site sizes it runs on."""
    site_procs = draw(
        st.lists(st.integers(min_value=4, max_value=MAX_SITE_PROCS), min_size=1, max_size=4)
    )
    widest = max(site_procs)
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    clock = 0.0
    for i in range(n):
        clock += 5.0 * draw(st.integers(min_value=0, max_value=8))
        runtime = 5.0 * draw(st.integers(min_value=1, max_value=24))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=clock,
                runtime=runtime,
                estimate=runtime * draw(st.sampled_from([1.0, 1.0, 2.0, 3.0])),
                procs=draw(st.integers(min_value=1, max_value=widest)),
            )
        )
    return Workload(tuple(jobs), max_procs=widest, name="prop-grid"), site_procs


def _recording(base, log, site):
    """``base()`` with every hook call the grid makes logged, in order."""

    class Recording(base):
        def on_arrival(self, job, now):
            log.append((site, "arrival", now, job.job_id))
            return super().on_arrival(job, now)

        def on_finish(self, job, now):
            log.append((site, "finish", now, job.job_id))
            return super().on_finish(job, now)

        def on_wakeup(self, now):
            log.append((site, "wakeup", now))
            return super().on_wakeup(now)

        def cancel(self, job, now):
            log.append((site, "cancel", now, job.job_id))
            super().cancel(job, now)

        def poke(self, now):
            log.append((site, "poke", now))
            return super().poke(now)

    return Recording()


def _outcome(module, workload, site_procs, discipline, dispatch, k, seed=7):
    """``discipline`` names one discipline for every site, or is a list
    of scheduler classes, one per site."""
    if isinstance(discipline, str):
        discipline = [DISCIPLINES[discipline]] * len(site_procs)
    log = []
    sites = [
        GridSite(f"s{i}", procs, _recording(base, log, i))
        for i, (procs, base) in enumerate(zip(site_procs, discipline))
    ]
    result = module.GridSimulator(
        workload, sites, dispatch=DISPATCHES[dispatch](k, seed)
    ).run()
    where = result.site_assignments
    metrics = result.metrics
    # repr, not ==: an empty group's summary holds NaN, and the repr of a
    # float round-trips exactly.
    return (
        [
            (r.job.job_id, where[r.job.job_id], r.start_time, r.finish_time)
            for r in result.completed
        ],
        repr(result.sites),
        dict(where),
        repr((metrics.overall, metrics.by_category, metrics.by_estimate_quality,
              metrics.makespan)),
        (result.workload_name, result.dispatch_name, result.replication),
        log,
    )


@pytest.mark.parametrize("dispatch", sorted(DISPATCHES))
@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
@given(grid=grids(), k=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_shipped_grid_equals_frozen(discipline, dispatch, grid, k):
    workload, site_procs = grid
    args = (workload, site_procs, discipline, dispatch, k)
    assert _outcome(shipped, *args) == _outcome(frozen, *args)


@pytest.mark.parametrize("discipline", ["easy", "cons"])
@pytest.mark.parametrize("seed", [1, 2])
def test_exp_grid_configuration_equals_frozen(discipline, seed):
    from repro.experiments.exp_grid import N_SITES, _SITE_PROCS, _grid_workload

    workload = _grid_workload(600, seed)
    site_procs = [_SITE_PROCS] * N_SITES
    for dispatch, k in (("random", 1), ("least-loaded", 1), ("least-loaded", 2),
                        ("least-loaded", 4)):
        args = (workload, site_procs, discipline, dispatch, k, seed)
        assert _outcome(shipped, *args) == _outcome(frozen, *args), (dispatch, k)


class _RearmOnFinish(EasyScheduler):
    """Asks for a wakeup at the very instant a job finishes."""

    def on_finish(self, job, now):
        self.request_wakeup(now)
        return super().on_finish(job, now)


class _WakeAtEstimate(EasyScheduler):
    """Asks for a wakeup at each arrival's estimated end."""

    def on_arrival(self, job, now):
        self.request_wakeup(now + job.estimate)
        return super().on_arrival(job, now)


def test_same_instant_wakeup_waits_for_the_next_batch():
    # Round-robin: job 1 runs on s0 until t=10, job 2 arms s1's timer for
    # t=10, job 3 reaches s0 at t=10.  s0's wakeup, asked for while t=10's
    # batch is being processed, fires after that batch's arrival.
    workload = Workload(
        (
            Job(job_id=1, submit_time=0.0, runtime=10.0, estimate=10.0, procs=2),
            Job(job_id=2, submit_time=0.0, runtime=10.0, estimate=10.0, procs=2),
            Job(job_id=3, submit_time=10.0, runtime=5.0, estimate=5.0, procs=2),
        ),
        max_procs=MAX_SITE_PROCS,
        name="same-instant-wakeup",
    )
    args = (workload, [MAX_SITE_PROCS] * 2, [_RearmOnFinish, _WakeAtEstimate],
            "round-robin", 1)
    shipped_outcome = _outcome(shipped, *args)
    assert shipped_outcome == _outcome(frozen, *args)
    log = shipped_outcome[-1]
    assert log.index((0, "arrival", 10.0, 3)) < log.index((0, "wakeup", 10.0))
