"""Unit tests for the estimate models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.estimates import (
    ROUND_LIMITS,
    ClampedEstimate,
    EstimateModel,
    ExactEstimate,
    MultiplicativeEstimate,
    UserEstimateModel,
    round_up_to_limit,
)
from repro.workload.job import Workload
from repro.workload.table import JobTable
from repro.workload.transforms import apply_estimates

from tests.conftest import make_job, make_workload


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestRoundUpToLimit:
    def test_rounds_to_next_limit(self):
        assert round_up_to_limit(100.0) == 300.0
        assert round_up_to_limit(301.0) == 900.0
        assert round_up_to_limit(3600.0) == 3600.0

    def test_beyond_largest_limit_rounds_to_hour(self):
        beyond = ROUND_LIMITS[-1] + 1.0
        assert round_up_to_limit(beyond) % 3600.0 == 0.0
        assert round_up_to_limit(beyond) >= beyond


class TestExactEstimate:
    def test_estimate_equals_runtime(self, rng):
        job = make_job(1, runtime=1234.5)
        assert ExactEstimate().estimate_for(job, rng) == 1234.5

    def test_apply_returns_updated_job(self):
        job = make_job(1, runtime=500.0, estimate=900.0)
        out = apply_estimates(Workload((job,), max_procs=4), ExactEstimate())
        assert out.jobs[0].estimate == 500.0


class TestMultiplicativeEstimate:
    def test_scales_runtime(self, rng):
        job = make_job(1, runtime=100.0)
        assert MultiplicativeEstimate(4.0).estimate_for(job, rng) == 400.0

    def test_factor_one_is_exact(self, rng):
        job = make_job(1, runtime=77.0)
        assert MultiplicativeEstimate(1.0).estimate_for(job, rng) == 77.0

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_factors_rejected(self, factor):
        with pytest.raises(ConfigurationError):
            MultiplicativeEstimate(factor)


class TestUserEstimateModel:
    def test_well_fraction_statistics(self, rng):
        model = UserEstimateModel(well_fraction=0.7, max_factor=16.0)
        job = make_job(1, runtime=1000.0)
        n = 4000
        well = sum(
            1 for _ in range(n) if model.estimate_for(job, rng) <= 2.0 * job.runtime
        )
        assert well / n == pytest.approx(0.7, abs=0.03)

    def test_estimates_never_below_runtime(self, rng):
        model = UserEstimateModel(well_fraction=0.3, max_factor=8.0)
        job = make_job(1, runtime=250.0)
        for _ in range(500):
            assert model.estimate_for(job, rng) >= job.runtime

    def test_estimates_bounded_by_max_factor(self, rng):
        model = UserEstimateModel(well_fraction=0.0, max_factor=8.0)
        job = make_job(1, runtime=100.0)
        for _ in range(500):
            assert model.estimate_for(job, rng) <= 800.0 + 1e-9

    def test_all_poor_when_well_fraction_zero(self, rng):
        model = UserEstimateModel(well_fraction=0.0, max_factor=8.0)
        job = make_job(1, runtime=100.0)
        for _ in range(200):
            assert model.estimate_for(job, rng) > 200.0

    def test_round_to_limits_produces_round_values(self, rng):
        model = UserEstimateModel(well_fraction=0.5, max_factor=8.0, round_to_limits=True)
        job = make_job(1, runtime=400.0)
        for _ in range(100):
            estimate = model.estimate_for(job, rng)
            assert estimate in ROUND_LIMITS or estimate % 3600.0 == 0.0

    def test_invalid_well_fraction_rejected(self):
        with pytest.raises(ConfigurationError, match="well_fraction"):
            UserEstimateModel(well_fraction=1.5)

    def test_max_factor_must_exceed_two(self):
        with pytest.raises(ConfigurationError, match="max_factor"):
            UserEstimateModel(max_factor=2.0)


class TestClampedEstimate:
    def test_clamps_to_maximum(self, rng):
        model = ClampedEstimate(MultiplicativeEstimate(10.0), max_estimate=500.0)
        job = make_job(1, runtime=100.0)
        assert model.estimate_for(job, rng) == 500.0

    def test_passes_through_below_maximum(self, rng):
        model = ClampedEstimate(MultiplicativeEstimate(2.0), max_estimate=500.0)
        job = make_job(1, runtime=100.0)
        assert model.estimate_for(job, rng) == 200.0

    def test_never_clamps_below_runtime(self, rng):
        model = ClampedEstimate(MultiplicativeEstimate(2.0), max_estimate=50.0)
        job = make_job(1, runtime=100.0)
        assert model.estimate_for(job, rng) == 100.0

    def test_invalid_maximum_rejected(self):
        with pytest.raises(ConfigurationError):
            ClampedEstimate(ExactEstimate(), max_estimate=0.0)


class _Jitter(EstimateModel):
    """A model with only the scalar draw."""

    def estimate_for(self, job, rng):
        return job.runtime * (1.0 + rng.random())


class TestColumnEstimatesDefault:
    def test_loops_the_scalar_draw_in_row_order(self):
        workload = make_workload(
            [make_job(i, submit=10.0 * i, runtime=100.0 + i) for i in range(1, 6)]
        )
        got = _Jitter().column_estimates(
            JobTable.from_workload(workload), np.random.default_rng(5)
        )
        rng = np.random.default_rng(5)
        assert got.tolist() == [_Jitter().estimate_for(job, rng) for job in workload]
