"""Unit tests for workload transformations."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.estimates import MultiplicativeEstimate, UserEstimateModel
from repro.workload.job import Workload
from repro.workload.transforms import (
    apply_estimates,
    scale_load,
    shift_to_zero,
    truncate,
)

from tests.conftest import make_job


@pytest.fixture
def workload():
    return Workload.from_jobs(
        [
            make_job(1, submit=100.0, runtime=50.0, procs=2),
            make_job(2, submit=200.0, runtime=60.0, procs=4),
            make_job(3, submit=400.0, runtime=70.0, procs=1),
        ],
        max_procs=8,
        name="base",
    )


class TestScaleLoad:
    def test_halving_gaps_doubles_load(self, workload):
        scaled = scale_load(workload, 0.5)
        assert scaled.offered_load == pytest.approx(workload.offered_load * 2)

    def test_first_submit_time_preserved(self, workload):
        scaled = scale_load(workload, 0.5)
        assert scaled[0].submit_time == 100.0

    def test_interarrival_scaling(self, workload):
        scaled = scale_load(workload, 0.5)
        assert scaled.interarrival_times() == [50.0, 100.0]

    def test_runtimes_untouched(self, workload):
        scaled = scale_load(workload, 0.25)
        assert [j.runtime for j in scaled] == [50.0, 60.0, 70.0]

    def test_factor_one_is_identity(self, workload):
        scaled = scale_load(workload, 1.0)
        assert scaled.interarrival_times() == workload.interarrival_times()

    def test_metadata_records_cumulative_factor(self, workload):
        twice = scale_load(scale_load(workload, 0.5), 0.5)
        assert twice.metadata["load_scale_factor"] == pytest.approx(0.25)

    def test_invalid_factor_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            scale_load(workload, 0.0)

    def test_empty_workload_passthrough(self):
        empty = Workload((), max_procs=4)
        assert len(scale_load(empty, 0.5)) == 0


class TestApplyEstimates:
    def test_multiplicative(self, workload):
        out = apply_estimates(workload, MultiplicativeEstimate(3.0))
        assert [j.estimate for j in out] == [150.0, 180.0, 210.0]

    def test_reproducible_with_same_seed(self, workload):
        model = UserEstimateModel(well_fraction=0.5)
        a = apply_estimates(workload, model, seed=9)
        b = apply_estimates(workload, model, seed=9)
        assert [j.estimate for j in a] == [j.estimate for j in b]

    def test_different_seeds_differ(self, workload):
        model = UserEstimateModel(well_fraction=0.5)
        a = apply_estimates(workload, model, seed=9)
        b = apply_estimates(workload, model, seed=10)
        assert [j.estimate for j in a] != [j.estimate for j in b]

    def test_metadata_records_model(self, workload):
        out = apply_estimates(workload, MultiplicativeEstimate(2.0))
        assert "MultiplicativeEstimate" in out.metadata["estimate_model"]


class TestTruncate:
    def test_max_jobs(self, workload):
        assert [j.job_id for j in truncate(workload, max_jobs=2)] == [1, 2]

    def test_skip(self, workload):
        assert [j.job_id for j in truncate(workload, skip=1)] == [2, 3]

    def test_skip_and_max(self, workload):
        assert [j.job_id for j in truncate(workload, skip=1, max_jobs=1)] == [2]

    def test_negative_skip_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            truncate(workload, skip=-1)


class TestOtherTransforms:
    def test_shift_to_zero(self, workload):
        shifted = shift_to_zero(workload)
        assert shifted[0].submit_time == 0.0
        assert shifted.interarrival_times() == workload.interarrival_times()

    def test_shift_of_zero_origin_is_identity(self):
        wl = Workload.from_jobs([make_job(1, submit=0.0)], max_procs=4)
        assert shift_to_zero(wl) is wl
