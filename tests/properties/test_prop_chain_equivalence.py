"""Differential suite: forked-chain simulations are byte-identical to
independent ones.

The chain/fork execution model (DESIGN.md section 9) claims that pausing
a simulation at a horizon boundary, snapshotting, and draining the
shorter workload from the snapshot produces *exactly* the schedule an
independent simulation of that workload would — for every scheduler
discipline, priority policy, and estimate regime, on both the fast and
the reference profile kernels.  "Exactly" means ``==`` on the full
``RunMetrics`` dataclass and on ``start_times()`` (the schedule itself),
not approximate closeness.

Also covered here (ISSUE satellite): advance reservations x
checkpointing — forking mid-blocker-window must reproduce the blocker
state exactly, and resuming onto a workload whose job ids collide with
blocker ids must raise a clear ``SimulationError``.
"""

from functools import lru_cache

import pytest

from repro.errors import SimulationError
from repro.exec import (
    Cell,
    CellExecutor,
    DistExecutor,
    ResultStore,
    metrics_digest,
    simulate_cell,
)
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    SCHEDULER_KINDS,
    cached_workload,
    make_scheduler,
)
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.priority.fairshare import FairSharePriority
from repro.sched.priority.policies import PRIORITY_POLICIES, SJFPriority
from repro.sched.reservations import AdvanceReservation
from repro.sim.engine import Simulator, simulate
from repro.workload.job import Job, Workload

from tests.oracles.profile_ref import configure_reference_kernel

ESTIMATES = ("exact", "r2", "r4", "user")

N_SHORT = 110
N_FULL = 180
SEED = 1
LOAD = 0.95


@lru_cache(maxsize=None)
def _pair(estimate):
    short = cached_workload(WorkloadSpec("CTC", N_SHORT, SEED, LOAD, estimate))
    full = cached_workload(WorkloadSpec("CTC", N_FULL, SEED, LOAD, estimate))
    return short, full


def _assert_fork_equivalent(short, full, make_sched):
    """Fork at the short horizon; branch and trunk must match monolithic runs."""
    want_short = simulate(short, make_sched())
    want_full = simulate(full, make_sched())
    trunk = Simulator(full, make_sched())
    trunk.run_until(len(short.jobs))
    branch = Simulator.resume(trunk.snapshot(), short)
    got_short = branch.drain()
    got_full = trunk.drain()
    for got, want in ((got_short, want_short), (got_full, want_full)):
        assert got.metrics == want.metrics
        assert got.start_times() == want.start_times()
        assert got.events_processed == want.events_processed


class TestEverySchedulerKernelEstimate:
    @pytest.mark.parametrize("estimate", ESTIMATES)
    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_fast_kernel(self, kind, estimate):
        short, full = _pair(estimate)
        _assert_fork_equivalent(short, full, lambda: make_scheduler(kind, "FCFS"))

    @pytest.mark.parametrize("estimate", ESTIMATES)
    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_reference_kernel(self, kind, estimate):
        short, full = _pair(estimate)
        _assert_fork_equivalent(
            short,
            full,
            lambda: configure_reference_kernel(make_scheduler(kind, "FCFS")),
        )


class TestEveryPriority:
    @pytest.mark.parametrize("priority", tuple(PRIORITY_POLICIES))
    @pytest.mark.parametrize("kind", ("easy", "cons", "sel"))
    def test_fast_kernel(self, kind, priority):
        short, full = _pair("user")
        _assert_fork_equivalent(short, full, lambda: make_scheduler(kind, priority))

    @pytest.mark.parametrize("priority", tuple(PRIORITY_POLICIES))
    def test_reference_kernel(self, priority):
        short, full = _pair("user")
        _assert_fork_equivalent(
            short,
            full,
            lambda: configure_reference_kernel(make_scheduler("cons", priority)),
        )

    def test_fairshare_priority_state_forks(self):
        # FAIR is stateful (decayed per-user usage), so it exercises the
        # PriorityPolicy.fork() path the registry policies skip.  Not a
        # Cell-addressable policy, hence tested at the engine level.
        short, full = _pair("user")
        _assert_fork_equivalent(
            short,
            full,
            lambda: make_scheduler_fair(),
        )


def make_scheduler_fair():
    from repro.sched.backfill.easy import EasyScheduler

    return EasyScheduler(FairSharePriority(SJFPriority(), half_life=7_200.0))


class TestMultiForkChains:
    @pytest.mark.parametrize("kind", ("cons", "easy", "nobf"))
    def test_three_horizon_chain(self, kind):
        horizons = (60, 110, 180)
        workloads = [
            cached_workload(WorkloadSpec("CTC", n, SEED, LOAD, "user"))
            for n in horizons
        ]
        wants = [simulate(w, make_scheduler(kind, "SJF")) for w in workloads]
        trunk = Simulator(workloads[-1], make_scheduler(kind, "SJF"))
        gots = []
        for workload in workloads[:-1]:
            trunk.run_until(len(workload.jobs))
            gots.append(Simulator.resume(trunk.snapshot(), workload).drain())
        gots.append(trunk.drain())
        for got, want in zip(gots, wants):
            assert got.metrics == want.metrics
            assert got.start_times() == want.start_times()


class TestAdvanceReservationsCheckpointing:
    """ISSUE satellite: forking mid-blocker-window."""

    def _ar_spanning_fork(self, short, full):
        # A window that starts before the fork boundary and ends after
        # it, so the machine-side blocker is mid-flight at snapshot time.
        boundary = full.jobs[len(short.jobs)].submit_time
        start = max(boundary * 0.5, 1.0)
        return AdvanceReservation(
            procs=max(full.max_procs // 4, 1),
            start=start,
            duration=boundary * 1.5 - start,
        )

    @pytest.mark.parametrize(
        "factory", (ConservativeScheduler, SelectiveScheduler, DepthScheduler)
    )
    def test_fork_mid_blocker_window_is_exact(self, factory):
        short, full = _pair("user")
        ar = self._ar_spanning_fork(short, full)
        make_sched = lambda: factory(advance_reservations=(ar,))
        _assert_fork_equivalent(short, full, make_sched)

    def test_fork_mid_blocker_window_reference_kernel(self):
        short, full = _pair("user")
        ar = self._ar_spanning_fork(short, full)
        _assert_fork_equivalent(
            short,
            full,
            lambda: configure_reference_kernel(
                ConservativeScheduler(advance_reservations=(ar,))
            ),
        )

    def test_resume_rejects_blocker_id_collision(self):
        short, full = _pair("user")
        ar = self._ar_spanning_fork(short, full)
        trunk = Simulator(full, ConservativeScheduler(advance_reservations=(ar,)))
        trunk.run_until(len(short.jobs))
        snap = trunk.snapshot()
        clashing = Workload(
            name="clash",
            jobs=tuple(
                Job(
                    job_id=Simulator._BLOCKER_ID_BASE + i,
                    submit_time=job.submit_time,
                    runtime=job.runtime,
                    estimate=job.estimate,
                    procs=job.procs,
                )
                for i, job in enumerate(short.jobs)
            ),
            max_procs=short.max_procs,
        )
        with pytest.raises(SimulationError, match="job ids must stay below"):
            Simulator.resume(snap, clashing)


class TestExecutorChainEquivalence:
    def _grid(self):
        return [
            Cell(WorkloadSpec("CTC", n, seed, LOAD, "user"), kind, priority)
            for seed in (1, 2)
            for kind, priority in (("cons", "FCFS"), ("easy", "SJF"))
            for n in (60, 110, 180)
        ]

    def _unchained(self, cells):
        """The reference: every cell simulated from scratch, on its own."""
        return [simulate_cell(cell).metrics for cell in cells]

    def test_serial_chained_matches_unchained(self):
        cells = self._grid()
        plain = self._unchained(cells)
        chained_exec = CellExecutor(store=ResultStore())
        chained = chained_exec.execute(cells)
        for a, b in zip(plain, chained):
            assert metrics_digest(a) == metrics_digest(b)
        report = chained_exec.last_report
        assert report.chains == 4
        assert report.chained_cells == 12
        assert report.chain_forks == 8
        assert report.chain_fallbacks == 0

    @pytest.mark.slow
    def test_parallel_chained_matches_serial_unchained(self, tmp_path):
        cells = self._grid()
        plain = self._unchained(cells)
        executor = DistExecutor(tmp_path, workers=2)
        chained = executor.execute(cells)
        executor.close()
        for a, b in zip(plain, chained):
            assert metrics_digest(a) == metrics_digest(b)
        # Four chain groups leased whole to two workers: every cell was
        # answered from a fork made in some worker, none fell back.
        assert executor.queue.stats().done_groups == 4
