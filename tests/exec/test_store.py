"""ResultStore: layered lookup, disk round-trips, corruption tolerance."""

import sqlite3

import pytest

from repro.exec import Cell, ResultStore, StoredResult, metrics_digest, simulate_cell
from repro.experiments.config import WorkloadSpec

SPEC = WorkloadSpec(trace="CTC", n_jobs=80, seed=3, load_scale=0.75, estimate="exact")
CELL = Cell(SPEC, "easy", "FCFS")


def damage(cache_dir, sql, *params):
    """Edit the database behind the store's back, as bit rot or a stray
    tool would: one statement, committed, connection closed."""
    conn = sqlite3.connect(cache_dir / "results.sqlite")
    with conn:
        assert conn.execute(sql, params).rowcount == 1
    conn.close()


@pytest.fixture(scope="module")
def stored():
    return simulate_cell(CELL)


class TestMemoryLayer:
    def test_miss_then_hit_returns_identical_object(self, stored):
        store = ResultStore()
        assert store.get(CELL) is None
        store.put(CELL, stored)
        assert store.get(CELL) is stored
        assert store.get(CELL) is stored
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 2

    def test_clear_memory(self, stored):
        store = ResultStore()
        store.put(CELL, stored)
        assert len(store) == 1
        store.clear_memory()
        assert len(store) == 0
        assert store.get(CELL) is None

    def test_memory_only_store_has_no_paths(self):
        store = ResultStore()
        assert store.cache_dir is None and store.backend is None
        assert store.entry_count() == 0 and store.size_bytes() == 0


class TestDiskLayer:
    def test_round_trip_is_float_identical(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        fresh = ResultStore(cache_dir=tmp_path)
        loaded = fresh.get(CELL)
        assert loaded is not None
        assert fresh.stats.disk_hits == 1
        assert metrics_digest(loaded.metrics) == metrics_digest(stored.metrics)
        assert loaded.metrics.utilization == stored.metrics.utilization
        assert (
            loaded.metrics.overall.mean_bounded_slowdown
            == stored.metrics.overall.mean_bounded_slowdown
        )
        assert loaded.events_processed == stored.events_processed

    def test_disk_hit_promotes_to_memory(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        fresh = ResultStore(cache_dir=tmp_path)
        first = fresh.get(CELL)
        second = fresh.get(CELL)
        assert first is second
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 1

    def test_put_writes_one_row_per_cell(self, stored, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put(CELL, stored)
        store.put(Cell(SPEC, "cons", "FCFS"), stored)
        assert store.entry_count() == 2
        assert CELL.content_hash() in store.backend.keys()
        assert (tmp_path / "results.sqlite").exists()


class TestCorruptionTolerance:
    def test_truncated_file_is_dropped_and_remissed(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        key = CELL.content_hash()
        damage(
            tmp_path,
            "UPDATE payloads SET metrics = substr(metrics, 1, length(metrics) / 2) "
            "WHERE key = ?",
            key,
        )
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None
        assert fresh.stats.corrupt_dropped == 1
        assert fresh.entry_count() == 0  # the bad row is deleted, not left to rot

    def test_garbage_json_is_dropped(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        damage(
            tmp_path,
            "UPDATE payloads SET metrics = 'not json at all {{{' WHERE key = ?",
            CELL.content_hash(),
        )
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None
        assert fresh.stats.corrupt_dropped == 1

    def test_schema_mismatch_is_stale_not_corrupt(self, stored, tmp_path):
        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        damage(
            tmp_path,
            "UPDATE meta SET schema_version = 999 WHERE key = ?",
            CELL.content_hash(),
        )
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None
        assert fresh.stats.stale_dropped == 1
        assert fresh.stats.corrupt_dropped == 0
        assert fresh.entry_count() == 0  # stale entries are reaped like corrupt ones

    def test_wrong_cell_payload_is_a_miss(self, stored, tmp_path):
        # A hash collision (or a hand-edited row) must not serve the
        # wrong cell's result.
        other = Cell(SPEC, "cons", "FCFS")
        ResultStore(cache_dir=tmp_path).put(other, stored)
        for table in ("meta", "payloads"):
            damage(
                tmp_path,
                f"UPDATE {table} SET key = ? WHERE key = ?",
                CELL.content_hash(),
                other.content_hash(),
            )
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(CELL) is None
        assert fresh.stats.corrupt_dropped == 1

    def test_corruption_recovers_via_resimulation(self, stored, tmp_path):
        from repro.exec import CellExecutor

        ResultStore(cache_dir=tmp_path).put(CELL, stored)
        damage(
            tmp_path,
            "UPDATE payloads SET metrics = 'corrupt' WHERE key = ?",
            CELL.content_hash(),
        )
        executor = CellExecutor(store=ResultStore(cache_dir=tmp_path))
        [metrics] = executor.execute([CELL])
        assert metrics_digest(metrics) == metrics_digest(stored.metrics)
        assert executor.last_report.simulated == 1
        assert executor.last_report.corrupt_dropped == 1
        # The rewritten row is valid again.
        assert ResultStore(cache_dir=tmp_path).get(CELL) is not None


class TestStats:
    def test_hit_rate(self, stored):
        store = ResultStore()
        assert store.stats.hit_rate == 0.0
        store.get(CELL)
        store.put(CELL, stored)
        store.get(CELL)
        assert store.stats.lookups == 2
        assert store.stats.hit_rate == 0.5

    def test_stored_result_defaults(self, stored):
        bare = StoredResult(metrics=stored.metrics)
        assert bare.events_processed == 0
        assert bare.sim_seconds == 0.0
