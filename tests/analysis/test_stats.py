"""Unit tests for the statistics helpers."""

import math

import pytest

from repro.analysis.stats import (
    confidence_interval,
    mean,
    percentile,
    relative_change_percent,
)
from repro.errors import ReproError


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            mean([])

    def test_nan_rejected(self):
        with pytest.raises(ReproError):
            mean([1.0, math.nan])


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            percentile([1.0], 101)


class TestConfidenceInterval:
    def test_single_value_collapses(self):
        assert confidence_interval([5.0]) == (5.0, 5.0, 5.0)

    def test_interval_contains_mean(self):
        m, lo, hi = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert lo < m < hi
        assert m == 2.5

    def test_wider_at_higher_confidence(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        _, lo95, hi95 = confidence_interval(values, confidence=0.95)
        _, lo50, hi50 = confidence_interval(values, confidence=0.50)
        assert hi95 - lo95 > hi50 - lo50

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ReproError):
            confidence_interval([1.0, 2.0], confidence=1.0)


class TestRelativeChange:
    def test_improvement_is_negative(self):
        assert relative_change_percent(5.0, 10.0) == -50.0

    def test_regression_is_positive(self):
        assert relative_change_percent(15.0, 10.0) == 50.0

    def test_zero_baseline_gives_nan(self):
        assert math.isnan(relative_change_percent(5.0, 0.0))

    def test_nonfinite_gives_nan(self):
        assert math.isnan(relative_change_percent(math.inf, 10.0))
