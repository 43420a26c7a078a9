"""Unit tests for the shared experiment helpers."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.common import (
    PRIORITIES,
    CellGrid,
    conditional_slowdown,
    quality_ids,
)
from repro.exec import Cell, run_cells
from repro.experiments.config import ExperimentParams
from repro.experiments.runner import clear_cache
from repro.metrics.categories import Category, EstimateQuality

PARAMS = ExperimentParams(n_jobs=200, seeds=(1, 2), traces=("CTC",))


@pytest.fixture(autouse=True, scope="module")
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _easy_grid() -> CellGrid:
    grid = CellGrid()
    grid.add("easy", PARAMS.specs("CTC", "exact"), "easy")
    return grid


class TestSeedMean:
    def test_matches_manual_mean(self):
        metrics = run_cells(
            [Cell(PARAMS.spec("CTC", seed, "exact"), "easy", "FCFS") for seed in PARAMS.seeds]
        )
        values = [m.overall.mean_bounded_slowdown for m in metrics]
        expected = sum(values) / len(values)
        assert _easy_grid().mean("easy") == pytest.approx(expected)

    def test_custom_metric_callable(self):
        # Any MetricSummary field reads, not only the slowdowns.
        assert _easy_grid().mean("easy", "count") == 200.0

    def test_turnaround_and_worst_are_consistent(self):
        grid = _easy_grid()
        assert grid.mean("easy", "max_turnaround") >= grid.mean("easy", "mean_turnaround")

    def test_category_slowdown_selects_category(self):
        grid = _easy_grid()
        sn = grid.mean("easy", category=Category.SN)
        assert sn > 0
        assert sn != grid.mean("easy")  # categories genuinely differ on this workload


class TestCellGrid:
    def test_key_declared_twice_raises(self):
        grid = _easy_grid()
        with pytest.raises(ExperimentError, match="declared twice"):
            grid.add("easy", PARAMS.specs("CTC", "user"), "easy")

    def test_runs_follow_declaration_order(self):
        grid = _easy_grid()
        grid.add("first seed", PARAMS.specs("CTC", "exact")[:1], "easy")
        assert grid.cells() == [
            Cell(PARAMS.spec("CTC", seed, "exact"), "easy") for seed in PARAMS.seeds
        ]
        assert grid.runs("first seed")[0] is grid.runs("easy")[0]


class TestQualityHelpers:
    def test_quality_ids_partition_the_workload(self):
        ids = quality_ids(PARAMS, "CTC", seed=1)
        well, poor = ids[EstimateQuality.WELL], ids[EstimateQuality.POOR]
        assert well and poor
        assert not (well & poor)
        assert len(well) + len(poor) == 200

    def test_conditional_slowdown_restricts(self):
        ids = quality_ids(PARAMS, "CTC", seed=1)
        [metrics] = run_cells([Cell(PARAMS.spec("CTC", 1, "user"), "easy", "FCFS")])
        well_value = conditional_slowdown(metrics, ids[EstimateQuality.WELL])
        all_value = metrics.overall.mean_bounded_slowdown
        assert well_value > 0
        # Restricting to a strict subset generally changes the mean.
        assert well_value != pytest.approx(all_value, rel=1e-12) or len(
            ids[EstimateQuality.POOR]
        ) == 0


def test_priorities_constant_matches_paper():
    assert PRIORITIES == ("FCFS", "SJF", "XF")
