"""Cell identity: normalization, hashing, payload round-trips, validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import CACHE_SCHEMA_VERSION, Cell
from repro.experiments.config import WorkloadSpec
from repro.metrics.collector import RecordTable, summarize
from repro.workload.table import FLOAT_COLUMNS, INT_COLUMNS

SPEC = WorkloadSpec(trace="CTC", n_jobs=100, seed=1, load_scale=0.75, estimate="exact")


class TestConstruction:
    def test_make_matches_positional(self):
        assert Cell.make(SPEC, "easy", "SJF") == Cell(SPEC, "easy", "SJF")

    def test_options_normalized_to_sorted_order(self):
        a = Cell(SPEC, "cons", "FCFS", (("b", 1), ("a", 2)))
        b = Cell(SPEC, "cons", "FCFS", (("a", 2), ("b", 1)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.options == (("a", 2), ("b", 1))

    def test_make_keyword_order_irrelevant(self):
        a = Cell.make(SPEC, "depth", "FCFS", depth=4, compression="none")
        b = Cell.make(SPEC, "depth", "FCFS", compression="none", depth=4)
        assert a == b

    def test_options_dict(self):
        cell = Cell.make(SPEC, "cons", "FCFS", compression="repack")
        assert cell.options_dict == {"compression": "repack"}

    def test_default_priority_is_fcfs(self):
        assert Cell(SPEC, "easy").priority == "FCFS"

    def test_label_mentions_identity(self):
        label = Cell.make(SPEC, "easy", "SJF", depth=2).label()
        assert "CTC" in label and "easy-SJF" in label and "depth=2" in label


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Cell(SPEC, "nope")

    def test_unknown_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            Cell(SPEC, "easy", "NOPE")

    def test_non_pair_option_rejected(self):
        with pytest.raises(ConfigurationError):
            Cell(SPEC, "easy", "FCFS", ("depth",))

    def test_non_scalar_option_value_rejected(self):
        with pytest.raises(ConfigurationError):
            Cell(SPEC, "easy", "FCFS", (("depth", [1, 2]),))


class TestHashing:
    def test_content_hash_is_stable(self):
        # Golden value: pins the canonical-JSON layout and the schema
        # version.  If this changes, every persisted cache entry is
        # invalidated — bump CACHE_SCHEMA_VERSION deliberately, not by
        # accident.
        cell = Cell.make(SPEC, "easy", "SJF")
        assert cell.content_hash() == cell.content_hash()
        assert len(cell.content_hash()) == 64
        assert CACHE_SCHEMA_VERSION == 3

    def test_the_stored_fold_is_pinned_to_the_schema(self):
        # A stored entry carries the aggregates summarize folded when it
        # was written, and a warm read returns them without re-folding.
        # So summarize's output is part of the stored schema: if this
        # repr changes, bump CACHE_SCHEMA_VERSION (and re-pin both), or
        # warm reruns serve the old fold's numbers.
        columns = {name: np.zeros(4, np.int64) for name in INT_COLUMNS}
        columns.update({name: np.full(4, -1.0) for name in FLOAT_COLUMNS})
        columns["job_id"] = np.arange(1, 5, dtype=np.int64)
        columns["procs"] = np.array([1, 64, 8, 9], np.int64)
        columns["submit_time"] = np.array([0.0, 5.0, 7.5, 100.0])
        columns["runtime"] = np.array([30.0, 4000.0, 3600.0, 1.0])
        columns["estimate"] = np.array([60.0, 9000.0, 3600.0, 5.0])
        columns["start_time"] = np.array([0.0, 12.25, 4007.5, 100.0])
        columns["finish_time"] = columns["start_time"] + np.minimum(
            columns["runtime"], columns["estimate"]
        )
        metrics = summarize(RecordTable(columns), utilization=0.5, makespan=7607.5)
        pinned = "".join(
            [
                "RunMetrics(overall=MetricSummary(count=4, mean_bounded_slowdown=1.2782309027777776, ",
                "mean_turnaround=2909.5625, mean_wait=1001.8125, max_turnaround=7600.0, ",
                "max_bounded_slowdown=2.111111111111111), by_category={<Category.SN: 'SN'>: ",
                "MetricSummary(count=2, mean_bounded_slowdown=1.5555555555555556, ",
                "mean_turnaround=3815.0, mean_wait=2000.0, max_turnaround=7600.0, ",
                "max_bounded_slowdown=2.111111111111111), <Category.SW: 'SW'>: ",
                "MetricSummary(count=1, mean_bounded_slowdown=1.0, mean_turnaround=1.0, ",
                "mean_wait=0.0, max_turnaround=1.0, max_bounded_slowdown=1.0), ",
                "<Category.LN: 'LN'>: MetricSummary(count=0, mean_bounded_slowdown=nan, ",
                "mean_turnaround=nan, mean_wait=nan, max_turnaround=nan, ",
                "max_bounded_slowdown=nan), <Category.LW: 'LW'>: MetricSummary(count=1, ",
                "mean_bounded_slowdown=1.0018125, mean_turnaround=4007.25, mean_wait=7.25, ",
                "max_turnaround=4007.25, max_bounded_slowdown=1.0018125)}, ",
                "by_estimate_quality={<EstimateQuality.WELL: 'well'>: MetricSummary(count=2, ",
                "mean_bounded_slowdown=1.5555555555555556, mean_turnaround=3815.0, ",
                "mean_wait=2000.0, max_turnaround=7600.0, ",
                "max_bounded_slowdown=2.111111111111111), <EstimateQuality.POOR: 'poor'>: ",
                "MetricSummary(count=2, mean_bounded_slowdown=1.0009062499999999, ",
                "mean_turnaround=2004.125, mean_wait=3.625, max_turnaround=4007.25, ",
                "max_bounded_slowdown=1.0018125)}, utilization=0.5, makespan=7607.5)",
            ]
        )
        assert repr(metrics) == pinned, (
            "summarize's output changed: stored entries carry the old fold, "
            "so bump CACHE_SCHEMA_VERSION and re-pin this repr"
        )

    def test_distinct_cells_distinct_hashes(self):
        base = Cell.make(SPEC, "easy", "SJF")
        variants = [
            Cell.make(SPEC, "easy", "FCFS"),
            Cell.make(SPEC, "cons", "SJF"),
            Cell.make(SPEC, "easy", "SJF", depth=2),
            Cell.make(
                WorkloadSpec(SPEC.trace, SPEC.n_jobs, 2, SPEC.load_scale, SPEC.estimate),
                "easy",
                "SJF",
            ),
        ]
        hashes = {c.content_hash() for c in [base, *variants]}
        assert len(hashes) == len(variants) + 1

    def test_equal_cells_equal_hashes(self):
        a = Cell.make(SPEC, "cons", "FCFS", compression="none")
        b = Cell.make(SPEC, "cons", "FCFS", compression="none")
        assert a.content_hash() == b.content_hash()


class TestPayload:
    def test_round_trip(self):
        cell = Cell.make(SPEC, "depth", "XF", depth=8)
        assert Cell.from_payload(cell.to_payload()) == cell

    def test_payload_is_json_safe(self):
        import json

        cell = Cell.make(SPEC, "easy", "SJF", threshold=2.5, flag=True)
        restored = json.loads(json.dumps(cell.to_payload()))
        assert Cell.from_payload(restored) == cell
