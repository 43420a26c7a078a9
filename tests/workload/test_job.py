"""Unit tests for the Job and Workload models."""

import math

import pytest

from repro.errors import WorkloadError
from repro.workload.job import Job, Workload

from tests.conftest import make_job


class TestJobValidation:
    def test_minimal_job_constructs(self):
        job = make_job(1, submit=5.0, runtime=100.0, procs=4)
        assert job.job_id == 1
        assert job.submit_time == 5.0
        assert job.procs == 4

    def test_negative_job_id_rejected(self):
        with pytest.raises(WorkloadError, match="job_id"):
            make_job(-1)

    def test_negative_submit_rejected(self):
        with pytest.raises(WorkloadError, match="submit_time"):
            make_job(1, submit=-0.5)

    def test_nan_submit_rejected(self):
        with pytest.raises(WorkloadError, match="submit_time"):
            make_job(1, submit=math.nan)

    def test_zero_runtime_rejected(self):
        with pytest.raises(WorkloadError, match="runtime"):
            make_job(1, runtime=0.0)

    def test_negative_runtime_rejected(self):
        with pytest.raises(WorkloadError, match="runtime"):
            make_job(1, runtime=-10.0)

    def test_infinite_runtime_rejected(self):
        with pytest.raises(WorkloadError, match="runtime"):
            make_job(1, runtime=math.inf)

    def test_zero_estimate_rejected(self):
        with pytest.raises(WorkloadError, match="estimate"):
            make_job(1, estimate=0.0)

    def test_zero_procs_rejected(self):
        with pytest.raises(WorkloadError, match="procs"):
            make_job(1, procs=0)


class TestJobProperties:
    def test_effective_runtime_caps_at_estimate(self):
        job = make_job(1, runtime=100.0, estimate=60.0)
        assert job.effective_runtime == 60.0

    def test_effective_runtime_is_runtime_when_estimate_larger(self):
        job = make_job(1, runtime=100.0, estimate=400.0)
        assert job.effective_runtime == 100.0

    def test_area_uses_effective_runtime(self):
        job = make_job(1, runtime=100.0, estimate=60.0, procs=4)
        assert job.area == 240.0

    def test_estimated_area(self):
        job = make_job(1, runtime=100.0, estimate=400.0, procs=4)
        assert job.estimated_area == 1600.0

    def test_overestimation_factor(self):
        job = make_job(1, runtime=50.0, estimate=200.0)
        assert job.overestimation_factor == 4.0

    def test_with_estimate_returns_new_job(self):
        job = make_job(1, runtime=100.0)
        other = job.with_estimate(500.0)
        assert other.estimate == 500.0
        assert job.estimate == 100.0
        assert other.job_id == job.job_id

    def test_with_submit_time(self):
        job = make_job(1, submit=10.0)
        assert job.with_submit_time(99.0).submit_time == 99.0

    def test_jobs_are_frozen(self):
        job = make_job(1)
        with pytest.raises(AttributeError):
            job.runtime = 5.0  # type: ignore[misc]


class TestWorkloadValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            Workload((make_job(1), make_job(1, submit=5.0)), max_procs=10)

    def test_out_of_order_submits_rejected(self):
        with pytest.raises(WorkloadError, match="ordered"):
            Workload((make_job(1, submit=10.0), make_job(2, submit=5.0)), max_procs=10)

    def test_oversized_job_rejected(self):
        with pytest.raises(WorkloadError, match="only has"):
            Workload((make_job(1, procs=16),), max_procs=8)

    def test_zero_procs_machine_rejected(self):
        with pytest.raises(WorkloadError, match="max_procs"):
            Workload((), max_procs=0)

    def test_from_jobs_sorts_by_submit_time(self):
        wl = Workload.from_jobs(
            [make_job(2, submit=10.0), make_job(1, submit=5.0)], max_procs=10
        )
        assert [j.job_id for j in wl] == [1, 2]

    def test_from_jobs_breaks_ties_by_id(self):
        wl = Workload.from_jobs(
            [make_job(5, submit=3.0), make_job(2, submit=3.0)], max_procs=10
        )
        assert [j.job_id for j in wl] == [2, 5]


class TestWorkloadProperties:
    def _workload(self):
        return Workload.from_jobs(
            [
                make_job(1, submit=0.0, runtime=100.0, procs=2),
                make_job(2, submit=50.0, runtime=200.0, procs=4),
                make_job(3, submit=150.0, runtime=50.0, procs=1),
            ],
            max_procs=10,
        )

    def test_len_and_indexing(self):
        wl = self._workload()
        assert len(wl) == 3
        assert wl[0].job_id == 1
        assert wl[2].job_id == 3

    def test_span(self):
        assert self._workload().span == 150.0

    def test_span_of_single_job_is_zero(self):
        wl = Workload.from_jobs([make_job(1)], max_procs=4)
        assert wl.span == 0.0

    def test_total_area(self):
        assert self._workload().total_area == 100 * 2 + 200 * 4 + 50 * 1

    def test_offered_load(self):
        wl = self._workload()
        assert wl.offered_load == pytest.approx(1050 / (10 * 150))

    def test_offered_load_infinite_for_zero_span(self):
        wl = Workload.from_jobs([make_job(1)], max_procs=4)
        assert math.isinf(wl.offered_load)

    def test_interarrival_times(self):
        assert self._workload().interarrival_times() == [50.0, 100.0]

    def test_map_jobs(self):
        wl = self._workload().map_jobs(lambda j: j.with_estimate(999.0))
        assert all(j.estimate == 999.0 for j in wl)

    def test_describe_contains_key_stats(self):
        info = self._workload().describe()
        assert info["jobs"] == 3
        assert info["max_procs"] == 10
        assert info["max_width"] == 4

    def test_describe_empty_workload(self):
        info = Workload((), max_procs=5).describe()
        assert info["jobs"] == 0
