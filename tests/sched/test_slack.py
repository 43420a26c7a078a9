"""Behavioral tests for slack-based backfilling."""

import pytest

from repro.errors import ConfigurationError
from repro.sched.backfill.slack import SlackScheduler
from repro.sim.engine import simulate

from tests.conftest import make_job, make_workload


def _starts(jobs, **kwargs):
    return simulate(make_workload(jobs), SlackScheduler(**kwargs)).start_times()


class TestValidation:
    def test_negative_slack_rejected(self):
        with pytest.raises(ConfigurationError):
            SlackScheduler(slack_factor=-0.1)


class TestSlackSemantics:
    # Machine 10.  job1 occupies 6 procs for 100 s.  job2 (8 procs, est
    # 100) waits; its guarantee is t=100.  job3 (4 procs, est 150) cannot
    # finish before job2's guarantee, so starting it at t=2 pushes job2's
    # replanned start to 152 — a 52 s slip against job2's deadline.

    def _jobs(self):
        return [
            make_job(1, submit=0.0, runtime=100.0, procs=6),
            make_job(2, submit=1.0, runtime=100.0, procs=8),
            make_job(3, submit=2.0, runtime=150.0, procs=4),
        ]

    def test_zero_slack_blocks_delaying_backfill(self):
        starts = _starts(self._jobs(), slack_factor=0.0)
        assert starts[2] == 100.0  # guarantee held exactly
        assert starts[3] == 200.0

    def test_generous_slack_admits_the_backfill(self):
        starts = _starts(self._jobs(), slack_factor=1.0)
        assert starts[3] == 2.0  # admitted: slip 52 <= slack 100
        assert starts[2] == pytest.approx(152.0)  # slipped but within deadline

    def test_slip_never_exceeds_deadline(self):
        # slack 0.3 x estimate 100 = 30 < 52 required: backfill refused.
        starts = _starts(self._jobs(), slack_factor=0.3)
        assert starts[2] == 100.0
        assert starts[3] == 200.0

    def test_harmless_backfill_always_admitted(self):
        # A short narrow job that delays nobody backfills even at slack 0.
        jobs = [
            make_job(1, submit=0.0, runtime=100.0, procs=6),
            make_job(2, submit=1.0, runtime=100.0, procs=8),
            make_job(3, submit=2.0, runtime=50.0, procs=2),
        ]
        starts = _starts(jobs, slack_factor=0.0)
        assert starts[3] == 2.0
        assert starts[2] == 100.0


class TestSlackSpectrum:
    def test_zero_slack_coincides_with_conservative_under_exact_estimates(self):
        # With exact estimates the FCFS plan never drifts, so slack 0
        # admits nothing beyond the plan and coincides with conservative.
        # (With early completions, slack 0 may still admit backfills that
        # fit inside the *original arrival guarantees* — plans drift
        # earlier than promises, creating legitimate headroom — so a
        # blanket equivalence claim would be wrong; see module docstring.)
        from repro.sched.backfill.conservative import ConservativeScheduler

        jobs = [
            make_job(
                i,
                submit=i * 4.0,
                runtime=20.0 + (i * 17) % 90,
                procs=(i * 7) % 9 + 1,
            )
            for i in range(1, 60)
        ]
        slack = simulate(
            make_workload(list(jobs)), SlackScheduler(slack_factor=0.0)
        ).start_times()
        cons = simulate(
            make_workload(list(jobs)), ConservativeScheduler(compression="repack")
        ).start_times()
        assert slack == cons

    def test_slack_spectrum_all_complete(self):
        jobs = [
            make_job(
                i,
                submit=i * 4.0,
                runtime=20.0 + (i * 17) % 90,
                estimate=2.0 * (20.0 + (i * 17) % 90),
                procs=(i * 7) % 9 + 1,
            )
            for i in range(1, 60)
        ]
        for slack in (0.0, 0.5, 2.0):
            metrics = simulate(
                make_workload(list(jobs)), SlackScheduler(slack_factor=slack)
            ).metrics
            assert metrics.overall.count == 59

    def test_deterministic(self):
        jobs = [
            make_job(i, submit=i * 5.0, runtime=30.0 + i % 50, procs=(i % 6) + 1)
            for i in range(1, 40)
        ]
        a = _starts(list(jobs), slack_factor=1.0)
        b = _starts(list(jobs), slack_factor=1.0)
        assert a == b
