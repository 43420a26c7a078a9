"""Statistical helpers for experiment aggregation.

Multi-seed experiments report means with normal-approximation confidence
intervals; the paper's Figure 2 uses relative change percentages, computed
here with explicit zero/NaN handling so reports never divide by zero
silently.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ReproError

__all__ = [
    "mean",
    "percentile",
    "confidence_interval",
    "relative_change_percent",
]


def _clean(values: Sequence[float]) -> np.ndarray:
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ReproError("statistic of an empty sequence")
    if not np.all(np.isfinite(array)):
        raise ReproError("statistic over non-finite values")
    return array


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    return float(_clean(values).mean())


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ReproError(f"percentile q must be in [0, 100], got {q}")
    return float(np.percentile(_clean(values), q))


def confidence_interval(
    values: Sequence[float], *, confidence: float = 0.95
) -> tuple[float, float, float]:
    """(mean, low, high) normal-approximation CI of the mean.

    With a single observation the interval collapses to the point value.
    """
    if not 0.0 < confidence < 1.0:
        raise ReproError(f"confidence must be in (0, 1), got {confidence}")
    array = _clean(values)
    m = float(array.mean())
    if array.size == 1:
        return (m, m, m)
    # Two-sided z-value via the error function (avoids a scipy dependency).
    z = math.sqrt(2.0) * _erfinv(confidence)
    half = z * float(array.std(ddof=1)) / math.sqrt(array.size)
    return (m, m - half, m + half)


def _erfinv(y: float) -> float:
    """Inverse error function (Winitzki's approximation, ~1e-3 accurate)."""
    a = 0.147
    ln_term = math.log(1.0 - y * y)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    return math.copysign(
        math.sqrt(math.sqrt(first * first - ln_term / a) - first), y
    )


def relative_change_percent(new: float, baseline: float) -> float:
    """Percent change of ``new`` relative to ``baseline``.

    Negative values mean an improvement when the metric is
    smaller-is-better (the convention of the paper's Figure 2).  Returns
    NaN when the baseline is 0 or either input is non-finite.
    """
    if not (math.isfinite(new) and math.isfinite(baseline)) or baseline == 0:
        return math.nan
    return 100.0 * (new - baseline) / baseline
