"""Unit tests for the fairness metrics."""

import pytest

from repro.errors import ReproError
from repro.metrics.fairness import fairness_report, start_time_deviations
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sim.engine import simulate

from tests.conftest import make_job, make_workload


def _contentious_jobs():
    # EASY backfills job 3 past the blocked job 2; strict FCFS does not.
    return [
        make_job(1, submit=0.0, runtime=100.0, procs=6),
        make_job(2, submit=1.0, runtime=100.0, procs=8),
        make_job(3, submit=2.0, runtime=50.0, procs=4),
    ]


class TestDeviations:
    def test_identical_schedules_have_zero_deviation(self):
        wl = make_workload(_contentious_jobs())
        a = simulate(wl, FCFSScheduler())
        b = simulate(wl, FCFSScheduler())
        deviations = start_time_deviations(a, b)
        assert all(d == 0.0 for d in deviations.values())

    def test_backfill_benefit_is_negative_deviation(self):
        wl = make_workload(_contentious_jobs())
        easy = simulate(wl, EasyScheduler())
        nobf = simulate(wl, FCFSScheduler())
        deviations = start_time_deviations(easy, nobf)
        assert deviations[3] < 0  # job 3 jumped ahead under EASY

    def test_metrics_read_like_their_result(self):
        wl = make_workload(_contentious_jobs())
        easy = simulate(wl, EasyScheduler())
        nobf = simulate(wl, FCFSScheduler())
        expected = start_time_deviations(easy, nobf)
        assert start_time_deviations(easy.metrics, nobf.metrics) == expected
        assert start_time_deviations(easy.metrics, nobf) == expected
        assert fairness_report(easy.metrics, nobf.metrics) == fairness_report(easy, nobf)

    def test_mismatched_jobs_rejected(self):
        wl_a = make_workload(_contentious_jobs())
        wl_b = make_workload(_contentious_jobs()[:2])
        a = simulate(wl_a, FCFSScheduler())
        b = simulate(wl_b, FCFSScheduler())
        with pytest.raises(ReproError, match="different jobs"):
            start_time_deviations(a, b)


class TestReport:
    def test_report_fields(self):
        wl = make_workload(_contentious_jobs())
        easy = simulate(wl, EasyScheduler())
        nobf = simulate(wl, FCFSScheduler())
        report = fairness_report(easy, nobf)
        assert report.jobs == 3
        assert report.advanced_count >= 1
        assert 0.0 <= report.delayed_fraction <= 1.0
        assert report.mean_benefit > 0.0

    def test_self_comparison_is_perfectly_fair(self):
        wl = make_workload(_contentious_jobs())
        result = simulate(wl, EasyScheduler())
        again = simulate(wl, EasyScheduler())
        report = fairness_report(result, again)
        assert report.delayed_count == 0
        assert report.advanced_count == 0
        assert report.net_mean_deviation == 0.0

    def test_realistic_unfairness_direction(self):
        # Against the no-backfill reference, EASY advances many jobs and
        # may delay none-to-few on this light workload; the net deviation
        # must not be positive.
        jobs = [
            make_job(i, submit=i * 4.0, runtime=30.0 + (i * 13) % 80, procs=(i * 3) % 8 + 1)
            for i in range(1, 50)
        ]
        wl = make_workload(jobs)
        easy = simulate(wl, EasyScheduler())
        nobf = simulate(wl, FCFSScheduler())
        report = fairness_report(easy, nobf)
        assert report.net_mean_deviation <= 0.0
        assert report.jobs == 49
