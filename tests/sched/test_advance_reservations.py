"""Tests for advance-reservation support."""

import pytest

from repro.cluster.machine import Machine
from repro.errors import ConfigurationError
from repro.exec import metrics_digest
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.reservations import (
    AdvanceReservation,
    HeldWindows,
    carve_reservations,
)
from repro.sched.profile import Profile
from repro.sim.engine import simulate

from tests.conftest import make_job, make_workload


class TestAdvanceReservation:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdvanceReservation(procs=0, start=0.0, duration=10.0)
        with pytest.raises(ConfigurationError):
            AdvanceReservation(procs=1, start=-1.0, duration=10.0)
        with pytest.raises(ConfigurationError):
            AdvanceReservation(procs=1, start=0.0, duration=0.0)

    def test_end_property(self):
        ar = AdvanceReservation(procs=4, start=100.0, duration=50.0)
        assert ar.end == 150.0

    def test_carve_skips_past_windows(self):
        profile = Profile(10, origin=200.0)
        carve_reservations(
            profile, [AdvanceReservation(procs=4, start=0.0, duration=50.0)], 200.0
        )
        assert profile.breakpoints() == [(200.0, 10)]

    def test_carve_clips_active_window(self):
        profile = Profile(10, origin=100.0)
        carve_reservations(
            profile, [AdvanceReservation(procs=4, start=50.0, duration=100.0)], 100.0
        )
        assert profile.free_at(100.0) == 6
        assert profile.free_at(150.0) == 10


AR = AdvanceReservation(procs=10, start=200.0, duration=100.0)  # full machine


@pytest.mark.parametrize(
    "factory",
    [
        lambda ars: ConservativeScheduler(advance_reservations=ars),
        lambda ars: ConservativeScheduler(
            compression="none", advance_reservations=ars
        ),
        lambda ars: SelectiveScheduler(advance_reservations=ars),
        lambda ars: DepthScheduler(depth=2, advance_reservations=ars),
    ],
    ids=["cons-repack", "cons-none", "selective", "depth"],
)
class TestSchedulingAroundAR:
    def test_jobs_pack_around_the_window(self, factory):
        # A 150s job arriving at t=100 cannot finish before the AR at 200,
        # so it must wait until the window clears at 300.  A 50s job fits
        # before the window and runs immediately.
        jobs = [
            make_job(1, submit=100.0, runtime=150.0, procs=4),
            make_job(2, submit=100.5, runtime=50.0, procs=4),
        ]
        starts = simulate(make_workload(jobs), factory((AR,))).start_times()
        assert starts[2] == 100.5  # fits before the window
        assert starts[1] == 300.0  # packed after the AR

    def test_no_job_overlaps_the_window(self, factory):
        jobs = [
            make_job(i, submit=float(i * 10), runtime=80.0 + i, procs=(i % 5) + 1)
            for i in range(1, 20)
        ]
        result = simulate(make_workload(jobs), factory((AR,)))
        for record in result.completed:
            # Full-machine AR: no job may run inside [200, 300).
            assert (
                record.finish_time <= AR.start + 1e-6
                or record.start_time >= AR.end - 1e-6
            )

    def test_all_jobs_complete(self, factory):
        jobs = [
            make_job(i, submit=float(i * 5), runtime=60.0, procs=(i % 9) + 1)
            for i in range(1, 40)
        ]
        result = simulate(make_workload(jobs), factory((AR,)))
        assert result.metrics.overall.count == 39


class TestEngineGuards:
    def test_unsupported_scheduler_rejected(self):
        # EASY has no plan to pack around a hard future rectangle, so it
        # has no advance_reservations parameter at all.
        from repro.experiments.runner import make_scheduler

        with pytest.raises(TypeError, match="advance_reservations"):
            EasyScheduler(advance_reservations=(AR,))
        with pytest.raises(TypeError, match="advance_reservations"):
            make_scheduler("easy", advance_reservations=(AR,))

    def test_oversized_ar_rejected(self):
        big = AdvanceReservation(procs=99, start=10.0, duration=10.0)
        with pytest.raises(ConfigurationError, match="needs 99 procs"):
            simulate(
                make_workload([make_job(1)]),
                ConservativeScheduler(advance_reservations=(big,)),
            )

    def test_jointly_oversubscribing_ars_rejected(self):
        # Each window fits alone; together they exceed the machine.
        windows = (
            AdvanceReservation(procs=6, start=10.0, duration=100.0),
            AdvanceReservation(procs=6, start=50.0, duration=100.0),
        )
        with pytest.raises(ConfigurationError, match="jointly"):
            simulate(
                make_workload([make_job(1)]),
                ConservativeScheduler(advance_reservations=windows),
            )

    def test_back_to_back_windows_are_legal(self):
        # Half-open windows: one ending exactly as another starts is fine
        # even at full machine width.
        windows = (
            AdvanceReservation(procs=10, start=10.0, duration=40.0),
            AdvanceReservation(procs=10, start=50.0, duration=40.0),
        )
        result = simulate(
            make_workload([make_job(1, submit=0.0, runtime=5.0, procs=2)]),
            ConservativeScheduler(advance_reservations=windows),
        )
        assert result.metrics.overall.count == 1

    def test_partial_width_ar_shares_machine(self):
        # 6 of 10 procs reserved on [50, 150): a 4-proc job may run through
        # the window, a 5-proc job may not.
        ar = AdvanceReservation(procs=6, start=50.0, duration=100.0)
        jobs = [
            make_job(1, submit=40.0, runtime=100.0, procs=4),
            make_job(2, submit=41.0, runtime=100.0, procs=5),
        ]
        starts = simulate(
            make_workload(jobs), ConservativeScheduler(advance_reservations=(ar,))
        ).start_times()
        assert starts[1] == 40.0
        assert starts[2] == 150.0

    def test_multiple_windows(self):
        ars = (
            AdvanceReservation(procs=10, start=100.0, duration=50.0, label="m1"),
            AdvanceReservation(procs=10, start=300.0, duration=50.0, label="m2"),
        )
        jobs = [make_job(1, submit=0.0, runtime=120.0, procs=8)]
        starts = simulate(
            make_workload(jobs), ConservativeScheduler(advance_reservations=ars)
        ).start_times()
        # 120s does not fit before t=100 nor between the windows (150-300);
        # wait: 150 to 300 is 150s >= 120s, so it fits in the gap.
        assert starts[1] == 150.0

class TestHeldWindows:
    """The ordering rules of the planning core's window holds, unit by unit."""

    def _make(self, log):
        machine = Machine(10)
        ar = AdvanceReservation(procs=4, start=100.0, duration=50.0)
        return HeldWindows((ar,), machine, log.append), machine

    def test_each_edge_is_requested_once(self):
        log = []
        windows = (
            AdvanceReservation(procs=4, start=100.0, duration=50.0),
            AdvanceReservation(procs=4, start=150.0, duration=50.0),
        )
        HeldWindows(windows, Machine(10), log.append)
        assert log == [100.0, 150.0, 200.0]

    def test_a_request_for_a_pending_edge_rides_on_its_wakeup(self):
        log = []
        windows, machine = self._make(log)
        windows.request(100.0, log.append)
        windows.request(120.0, log.append)
        assert log == [100.0, 150.0, 120.0]
        assert windows.wake(100.0, machine) == (0, True)

    def test_an_unasked_edge_runs_no_timer_pass(self):
        windows, machine = self._make([])
        assert windows.wake(100.0, machine) == (0, False)
        windows.open(100.0, machine, None, (), [])
        assert machine.free_procs == 6

    def test_a_request_during_the_edge_instant_wakes_again_after_it(self):
        log = []
        windows, machine = self._make(log)
        assert windows.passes_before(7, 100.0, machine) == 0
        windows.request(90.0, log.append)  # clamped to the current instant
        assert log == [100.0, 150.0]
        assert windows.wake(100.0, machine) == (0, False)
        windows.open(100.0, machine, log.append, (), [])
        assert log == [100.0, 150.0, 100.0]

    def test_a_window_ends_ahead_of_jobs_started_after_it_opened(self):
        windows, machine = self._make([])
        windows.wake(100.0, machine)
        windows.open(100.0, machine, None, (1,), [make_job(2)])
        # Jobs 1 and 2 started before the window opened: their finishes
        # come first; job 3 started after, so the refill precedes it.
        assert windows.passes_before(1, 150.0, machine) == 0
        assert machine.free_procs == 10
        assert windows.passes_before(2, 150.0, machine) == 0
        assert windows.passes_before(3, 150.0, machine) == 1
        assert windows.wake(150.0, machine) == (0, False)

    def test_job_ids_of_any_size_share_the_machine_with_windows(self):
        ar = AdvanceReservation(procs=2, start=10.0, duration=10.0)
        wl = make_workload([make_job(10**12 + 1, procs=1)])
        result = simulate(wl, ConservativeScheduler(advance_reservations=(ar,)))
        assert result.start_times() == {10**12 + 1: 0.0}


# -- pinned schedules -------------------------------------------------------
#
# Every AR schedule is pinned by ``metrics_digest`` (records in order,
# utilization, makespan), so a change to how windows are held, released
# or ordered against an instant's other events shows as a changed digest.
# The digests were computed before the window lifecycle moved from the
# engine into the planning core and must never be re-pinned to match new
# code: a mismatch is a changed schedule.

PINNED_DISCIPLINES = {
    **{
        f"cons-{mode}": (
            lambda ars, mode=mode: ConservativeScheduler(
                compression=mode, advance_reservations=ars
            )
        )
        for mode in ("repack", "startonly", "full", "none")
    },
    "sel": lambda ars: SelectiveScheduler(advance_reservations=ars),
    "depth": lambda ars: DepthScheduler(depth=2, advance_reservations=ars),
}


def _maintenance_case(fraction):
    """``exp_maintenance``'s configuration at a scale that has windows."""
    from repro.experiments.config import WorkloadSpec
    from repro.experiments.exp_maintenance import _windows
    from repro.experiments.runner import cached_workload

    workload = cached_workload(WorkloadSpec("CTC", 1000, 1, 1.0, "user"))
    procs = max(int(workload.max_procs * fraction), 1)
    windows = _windows(workload.span, procs)
    assert len(windows) == 2
    return workload, windows


def _shared_timer_case():
    # Job 2 cannot finish before the full-machine window, so conservative
    # reserves it at the window's end: a reservation timer shares the
    # instant the window is released.
    ar = AdvanceReservation(procs=10, start=200.0, duration=100.0)
    jobs = [
        make_job(1, submit=0.0, runtime=150.0, procs=6),
        make_job(2, submit=10.0, runtime=100.0, procs=6),
        make_job(3, submit=20.0, runtime=40.0, estimate=60.0, procs=4),
        make_job(4, submit=160.0, runtime=30.0, estimate=50.0, procs=8),
        make_job(5, submit=170.0, runtime=20.0, estimate=90.0, procs=3),
    ]
    return make_workload(jobs), (ar,)


def _finish_at_end_before_case():
    # Job 1 starts before the window opens and finishes, early against
    # its estimate, exactly as the window ends.
    ar = AdvanceReservation(procs=4, start=100.0, duration=100.0)
    jobs = [
        make_job(1, submit=0.0, runtime=200.0, estimate=250.0, procs=3),
        make_job(2, submit=5.0, runtime=100.0, procs=6),
        make_job(3, submit=10.0, runtime=50.0, estimate=80.0, procs=3),
        make_job(4, submit=120.0, runtime=60.0, procs=5),
        make_job(5, submit=130.0, runtime=40.0, estimate=120.0, procs=2),
        make_job(6, submit=150.0, runtime=30.0, estimate=45.0, procs=4),
    ]
    return make_workload(jobs), (ar,)


def _finish_at_end_after_case():
    # Job 2 starts inside the window and finishes, early against its
    # estimate, exactly as the window ends.
    ar = AdvanceReservation(procs=4, start=100.0, duration=100.0)
    jobs = [
        make_job(1, submit=0.0, runtime=130.0, estimate=150.0, procs=3),
        make_job(2, submit=120.0, runtime=80.0, estimate=120.0, procs=3),
        make_job(3, submit=125.0, runtime=100.0, procs=6),
        make_job(4, submit=126.0, runtime=30.0, estimate=40.0, procs=4),
        make_job(5, submit=140.0, runtime=50.0, estimate=70.0, procs=2),
        make_job(6, submit=150.0, runtime=20.0, estimate=100.0, procs=5),
    ]
    return make_workload(jobs), (ar,)


def _back_to_back_case():
    windows = (
        AdvanceReservation(procs=10, start=100.0, duration=50.0),
        AdvanceReservation(procs=10, start=150.0, duration=50.0),
    )
    jobs = [
        make_job(1, submit=0.0, runtime=90.0, estimate=95.0, procs=5),
        make_job(2, submit=10.0, runtime=60.0, estimate=120.0, procs=5),
        make_job(3, submit=20.0, runtime=40.0, procs=6),
        make_job(4, submit=110.0, runtime=30.0, estimate=60.0, procs=7),
        make_job(5, submit=160.0, runtime=25.0, procs=4),
    ]
    return make_workload(jobs), windows


def _ends_after_last_finish_case():
    ar = AdvanceReservation(procs=5, start=500.0, duration=100.0)
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, estimate=150.0, procs=6),
        make_job(2, submit=20.0, runtime=200.0, procs=5),
        make_job(3, submit=40.0, runtime=50.0, estimate=80.0, procs=4),
    ]
    return make_workload(jobs), (ar,)


PINNED_CASES = {
    "maintenance-full": lambda: _maintenance_case(1.0),
    "maintenance-half": lambda: _maintenance_case(0.5),
    "shared-timer": _shared_timer_case,
    "finish-at-end-before": _finish_at_end_before_case,
    "finish-at-end-after": _finish_at_end_after_case,
    "back-to-back": _back_to_back_case,
    "ends-after-last-finish": _ends_after_last_finish_case,
}


def _forked_digests(factory):
    """The chain suite's case: fork mid-window, drain branch and trunk."""
    from repro.experiments.config import WorkloadSpec
    from repro.experiments.runner import cached_workload
    from repro.sim.engine import Simulator

    short = cached_workload(WorkloadSpec("CTC", 110, 1, 0.95, "user"))
    full = cached_workload(WorkloadSpec("CTC", 180, 1, 0.95, "user"))
    boundary = full.jobs[len(short.jobs)].submit_time
    start = max(boundary * 0.5, 1.0)
    ar = AdvanceReservation(
        procs=max(full.max_procs // 4, 1),
        start=start,
        duration=boundary * 1.5 - start,
    )
    trunk = Simulator(full, factory((ar,)))
    trunk.run_until(len(short.jobs))
    branch = Simulator.resume(trunk.snapshot(), short)
    return (
        metrics_digest(branch.drain().metrics),
        metrics_digest(trunk.drain().metrics),
    )


def pinned_digest(case, discipline):
    factory = PINNED_DISCIPLINES[discipline]
    if case == "forked-branch":
        return _forked_digests(factory)[0]
    if case == "forked-trunk":
        return _forked_digests(factory)[1]
    workload, windows = PINNED_CASES[case]()
    return metrics_digest(simulate(workload, factory(windows)).metrics)


PINNED_DIGESTS = {
    ("back-to-back", "cons-full"): (
        "f7cb51df21a5262083ee29125333425186a4eea5a0b22a19ca6f609d4e50b19b"
    ),
    ("back-to-back", "cons-none"): (
        "ac25329355573b2d0889ca32e25a09c485687f4a2a9653027808396328b96274"
    ),
    ("back-to-back", "cons-repack"): (
        "f7cb51df21a5262083ee29125333425186a4eea5a0b22a19ca6f609d4e50b19b"
    ),
    ("back-to-back", "cons-startonly"): (
        "ef3e1b26d567c901be4c1ae9c3c56fcdc90bfb9be334d9fcd43304671536714b"
    ),
    ("back-to-back", "depth"): (
        "9363254cce929ea273beacce7284614e35bd8f38cd06429b9685d801457e84ad"
    ),
    ("back-to-back", "sel"): (
        "9363254cce929ea273beacce7284614e35bd8f38cd06429b9685d801457e84ad"
    ),
    ("ends-after-last-finish", "cons-full"): (
        "5097abe1000b6e6f7db15b2e3f22095cf199c188468bf14efd939a609ed9650e"
    ),
    ("ends-after-last-finish", "cons-none"): (
        "46e4033df6d0e1320e92f1d35b915bbd98faa6610f115f03f6baaffdf63b7f9c"
    ),
    ("ends-after-last-finish", "cons-repack"): (
        "5097abe1000b6e6f7db15b2e3f22095cf199c188468bf14efd939a609ed9650e"
    ),
    ("ends-after-last-finish", "cons-startonly"): (
        "5097abe1000b6e6f7db15b2e3f22095cf199c188468bf14efd939a609ed9650e"
    ),
    ("ends-after-last-finish", "depth"): (
        "5097abe1000b6e6f7db15b2e3f22095cf199c188468bf14efd939a609ed9650e"
    ),
    ("ends-after-last-finish", "sel"): (
        "5097abe1000b6e6f7db15b2e3f22095cf199c188468bf14efd939a609ed9650e"
    ),
    ("finish-at-end-after", "cons-full"): (
        "6075400ed1ff624010089c5572daa9bdf6170f088f9ec4a218c47f244df92419"
    ),
    ("finish-at-end-after", "cons-none"): (
        "ff535c3e28700cd3003d5feaddb41ab3a112d5d37913dbc8f74518450e50f8c9"
    ),
    ("finish-at-end-after", "cons-repack"): (
        "6075400ed1ff624010089c5572daa9bdf6170f088f9ec4a218c47f244df92419"
    ),
    ("finish-at-end-after", "cons-startonly"): (
        "6075400ed1ff624010089c5572daa9bdf6170f088f9ec4a218c47f244df92419"
    ),
    ("finish-at-end-after", "depth"): (
        "6075400ed1ff624010089c5572daa9bdf6170f088f9ec4a218c47f244df92419"
    ),
    ("finish-at-end-after", "sel"): (
        "4251ced2c473c9816f56fadd9fa4674dfb07146d695894e84185ccdc57d7e075"
    ),
    ("finish-at-end-before", "cons-full"): (
        "183d84e692d987c7f31440ac65b42423d2e56b60a576f2ea49f979db00fb0647"
    ),
    ("finish-at-end-before", "cons-none"): (
        "8d6ab9eb2e201ef05251b3601ac68ba2baa8fa2a1050a47805ad0a9bb1c311b8"
    ),
    ("finish-at-end-before", "cons-repack"): (
        "183d84e692d987c7f31440ac65b42423d2e56b60a576f2ea49f979db00fb0647"
    ),
    ("finish-at-end-before", "cons-startonly"): (
        "183d84e692d987c7f31440ac65b42423d2e56b60a576f2ea49f979db00fb0647"
    ),
    ("finish-at-end-before", "depth"): (
        "183d84e692d987c7f31440ac65b42423d2e56b60a576f2ea49f979db00fb0647"
    ),
    ("finish-at-end-before", "sel"): (
        "472a3a09f28436a20c4944270d3bcf838e75cf1fdc30419481c20a79c765f1f1"
    ),
    ("maintenance-full", "cons-full"): (
        "68e1b8344c67b82583cd92a57caecf4552fb77a70bca30737d2fba3fb2b3b4a3"
    ),
    ("maintenance-full", "cons-none"): (
        "3a8979e8c32f3b5e6494712097fb369d741fd8a5debe65de7ed8ac4a1d6cd10b"
    ),
    ("maintenance-full", "cons-repack"): (
        "74a7f20a16898d324897b491b5694e2c8e5aaecd771a7a444bc7db5478185f8a"
    ),
    ("maintenance-full", "cons-startonly"): (
        "d248d6bd93713af6f1005190403330e4ee46ed31f741ce60a3f67cfd40af439f"
    ),
    ("maintenance-full", "depth"): (
        "0a6c1bb3fb506288a8bf82b8dcc3229d6ffcac72c2623c47e50f0239705b9011"
    ),
    ("maintenance-full", "sel"): (
        "4052aea2e3be0b4449194771e0e6874c52793a945f0fcbf620e46518d2e921a4"
    ),
    ("maintenance-half", "cons-full"): (
        "84a8c80bbe639a0b7e222709fafe28dfc2e0befda01dc95c59c775b81e44a927"
    ),
    ("maintenance-half", "cons-none"): (
        "54b774f67ea2811380b7a291bd0408658bcaa4c73380f0181249f7b855f4da27"
    ),
    ("maintenance-half", "cons-repack"): (
        "8ad2d211fa18e9c2f8f65a5b25b1518d1b7a3b524f8c99d501e66d1d2bfcad34"
    ),
    ("maintenance-half", "cons-startonly"): (
        "43f48a56c2a6cc9fca38251c953be5530eb2dace79eba8ac95ee987e4ed195cf"
    ),
    ("maintenance-half", "depth"): (
        "b1b33e99a3da3a1541679e31b52f10c74b5fe6249426687698961972ee096f3f"
    ),
    ("maintenance-half", "sel"): (
        "e390e73aafc137fe957b2b94dffe0e9ed5adb1121202248d18fd12b208c4ef38"
    ),
    ("shared-timer", "cons-full"): (
        "531358126ac92c1202d4ee2ccfa85dabde0670dd55f269105983cd99fcde7ac7"
    ),
    ("shared-timer", "cons-none"): (
        "531358126ac92c1202d4ee2ccfa85dabde0670dd55f269105983cd99fcde7ac7"
    ),
    ("shared-timer", "cons-repack"): (
        "531358126ac92c1202d4ee2ccfa85dabde0670dd55f269105983cd99fcde7ac7"
    ),
    ("shared-timer", "cons-startonly"): (
        "531358126ac92c1202d4ee2ccfa85dabde0670dd55f269105983cd99fcde7ac7"
    ),
    ("shared-timer", "depth"): (
        "531358126ac92c1202d4ee2ccfa85dabde0670dd55f269105983cd99fcde7ac7"
    ),
    ("shared-timer", "sel"): (
        "531358126ac92c1202d4ee2ccfa85dabde0670dd55f269105983cd99fcde7ac7"
    ),
    ("forked-branch", "cons-full"): (
        "0870365306bd5e3df9fa8ef89b4a4c50d064ea9ee3df0a548a6bc106ce3490d9"
    ),
    ("forked-branch", "cons-none"): (
        "a21d997c42678e38d939fa63e0a5b8a4f69a8d5801e6bc0909be257cd8a5ea5a"
    ),
    ("forked-branch", "cons-repack"): (
        "7f0c827707afe19bc02a3ce7e62bc06e0bb742239df9b42abddacb0c1b486e1f"
    ),
    ("forked-branch", "cons-startonly"): (
        "9e439c66fc1c76503ea4e76946a0d652c93214b961592d5ea54a0fb158b8222e"
    ),
    ("forked-branch", "depth"): (
        "64e265fe0ee5a07768d771aa840f6b5a6ff473338e78cfe69a18bcf2cffe98ec"
    ),
    ("forked-branch", "sel"): (
        "d4c320e47dd07a6dee4a366f76454669aecbd9bdced3f0152e441d008010a044"
    ),
    ("forked-trunk", "cons-full"): (
        "42a5f4ffa859a2b6aac14101e29841b2657bdb1c4dea75bf0ff87aacf494fbca"
    ),
    ("forked-trunk", "cons-none"): (
        "9cc0da50a66a231eada7225f7a34d76e735625bae773017412409397cbfb711b"
    ),
    ("forked-trunk", "cons-repack"): (
        "673ed654fba1ca266978bac55e8b098ac5dd07d4058db13abf67b9e8cdd6feec"
    ),
    ("forked-trunk", "cons-startonly"): (
        "2df944b8e0659330082954f9270e19e9175f8dbc5cf4d04a082f2c08ebb5e5cc"
    ),
    ("forked-trunk", "depth"): (
        "a207533af53ed298fc8cf0f7a1b61f9baa29644519a94a531512dae2721d4bf7"
    ),
    ("forked-trunk", "sel"): (
        "81c90e28333a66916cdd29595cc5c17be7faaba8e934ebe499792f7112a2bd57"
    ),
}


@pytest.mark.parametrize("discipline", sorted(PINNED_DISCIPLINES))
@pytest.mark.parametrize(
    "case", sorted(PINNED_CASES) + ["forked-branch", "forked-trunk"]
)
def test_pinned_ar_schedule(case, discipline):
    assert pinned_digest(case, discipline) == PINNED_DIGESTS[case, discipline]
