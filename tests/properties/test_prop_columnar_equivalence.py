"""Differential suite: the columnar sweep pipeline is float-identical
to the row-at-a-time reference path.

Three layers are pinned, separately and end-to-end:

* workload construction — ``make_workload`` (columnar derivation from a
  memoized base table) vs the oracle ``make_workload_rows``
  (per-transform Job rebuilds);
* SWF ingest — ``read_swf(engine="columnar")`` / ``read_swf_table`` vs
  ``read_swf(engine="rows")``;
* aggregation — ``summarize`` vs the oracle ``summarize_rows``.

"Identical" means exact ``==`` on the full ``RunMetrics`` dataclass —
every mean, max, category and quality summary, and every per-job record —
not approximate closeness.
"""

import io
from functools import lru_cache

import pytest

from repro.exec import Cell, CellExecutor, ResultStore, metrics_digest, simulate_cell
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    SCHEDULER_KINDS,
    make_scheduler,
    make_workload,
    make_workload_table,
)
from repro.metrics.collector import summarize
from repro.sched.priority.policies import PRIORITY_POLICIES
from repro.sim.engine import simulate
from repro.workload.swf import read_swf, read_swf_table, write_swf
from repro.workload.table import JobTable
from repro.workload.transforms import truncate

from tests.oracles.row_pipeline import make_workload_rows, summarize_rows

ESTIMATES = ("exact", "r2", "r4", "user")

N_JOBS = 120


@lru_cache(maxsize=None)
def _workload_pair(estimate):
    spec = WorkloadSpec("CTC", N_JOBS, 1, 0.75, estimate)
    return make_workload_rows(spec), make_workload(spec)


def _row_metrics(workload, scheduler):
    """``simulate`` as if the engine aggregated with the row reference."""
    metrics = simulate(workload, scheduler).metrics
    return summarize_rows(
        metrics.records, utilization=metrics.utilization, makespan=metrics.makespan
    )


def _assert_same_workload(rows, cols):
    assert rows.jobs == cols.jobs
    assert rows.max_procs == cols.max_procs
    assert rows.name == cols.name
    assert rows.metadata == cols.metadata


class TestWorkloadConstruction:
    @pytest.mark.parametrize("estimate", ESTIMATES)
    @pytest.mark.parametrize("trace", ["CTC", "SDSC", "LUBLIN"])
    def test_columnar_make_workload_matches_rows(self, trace, estimate):
        spec = WorkloadSpec(trace, 100, 2, 0.8, estimate)
        _assert_same_workload(make_workload_rows(spec), make_workload(spec))

    def test_unscaled_load_matches(self):
        spec = WorkloadSpec("CTC", 100, 3, 1.0, "user")
        _assert_same_workload(make_workload_rows(spec), make_workload(spec))

    def test_truncated_window_matches(self):
        # The sweep benchmark's horizon axis: a window carved from the
        # derived condition must be identical through both paths,
        # including a window larger than the trace (no-op) and skip.
        spec = WorkloadSpec("CTC", 100, 6, 0.8, "user")
        for kwargs in (
            {"max_jobs": 1},
            {"max_jobs": 40},
            {"max_jobs": 150},
            {"max_jobs": 40, "skip": 10},
            {"skip": 25},
        ):
            rows = truncate(make_workload_rows(spec), **kwargs)
            cols = truncate(make_workload_table(spec), **kwargs).to_workload()
            _assert_same_workload(rows, cols)

    def test_table_round_trips_through_rows(self):
        spec = WorkloadSpec("CTC", 100, 4, 0.75, "user")
        table = make_workload_table(spec)
        again = JobTable.from_workload(table.to_workload())
        assert again.to_workload().jobs == table.to_workload().jobs


class TestEndToEnd:
    """Row-built workload + row summarize vs columnar workload + columnar
    summarize: the full pre-PR pipeline against the full new pipeline."""

    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    @pytest.mark.parametrize("estimate", ESTIMATES)
    def test_every_scheduler_and_estimate(self, kind, estimate):
        rows, cols = _workload_pair(estimate)
        want = _row_metrics(rows, make_scheduler(kind, "FCFS"))
        got = simulate(cols, make_scheduler(kind, "FCFS")).metrics
        assert got == want

    @pytest.mark.parametrize("priority", tuple(PRIORITY_POLICIES))
    def test_every_priority(self, priority):
        rows, cols = _workload_pair("user")
        want = _row_metrics(rows, make_scheduler("easy", priority))
        got = simulate(cols, make_scheduler("easy", priority)).metrics
        assert got == want


class TestSummarizeEquivalence:
    @pytest.mark.parametrize("kind", ["nobf", "easy", "cons"])
    def test_rows_vs_columns_on_same_records(self, kind):
        _, workload = _workload_pair("user")
        result = simulate(workload, make_scheduler(kind))
        records = result.metrics.records
        a = summarize_rows(records, utilization=0.5, makespan=123.0)
        b = summarize(records, utilization=0.5, makespan=123.0)
        assert a == b

    def test_empty_records(self):
        assert summarize_rows([]) == summarize([])


class TestSWFEquivalence:
    def test_swf_fixture_parses_and_simulates_identically(self, tmp_path):
        rows, _ = _workload_pair("user")
        path = tmp_path / "fixture.swf"
        write_swf(rows, path)

        via_rows = read_swf(path, engine="rows")
        via_cols = read_swf(path, engine="columnar")
        via_table = read_swf_table(path).to_workload()
        _assert_same_workload(via_rows, via_cols)
        _assert_same_workload(via_rows, via_table)

        want = _row_metrics(via_rows, make_scheduler("easy", "SJF"))
        got = simulate(via_table, make_scheduler("easy", "SJF")).metrics
        assert got == want


class TestExecutorEquivalence:
    def test_chunked_parallel_matches_serial(self):
        # The executor simulates from the cached columnar table; its
        # answers must be those of a from-scratch run per cell.
        cells = []
        for seed in (1, 2):
            spec = WorkloadSpec("CTC", 100, seed, 0.75, "user")
            for kind, priority in (("cons", "FCFS"), ("easy", "SJF"), ("nobf", "FCFS")):
                cells.append(Cell(spec, kind, priority))
        batched = CellExecutor(store=ResultStore()).execute(cells)
        for cell, got in zip(cells, batched):
            assert metrics_digest(got) == metrics_digest(simulate_cell(cell).metrics)
