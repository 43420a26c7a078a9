"""Store differential suite: a cache serves the same whatever its history.

There is one disk layout (SQLite), but two ways a cache directory comes
to hold entries: written natively, or imported from a legacy
JSON-per-file directory by ``migrate_store``.  The store front owns all
semantic judgment (schema staleness, cell verification, metrics
decoding), so both histories must be interchangeable: same hits, same
digests, same stale/corrupt classification.  Retired layouts that were
*not* imported must be refused by name, never shadowed by a fresh empty
database.  These tests drive the public :class:`ResultStore` API plus
targeted backend-level corruption.
"""

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    Cell,
    CellExecutor,
    DistExecutor,
    ResultStore,
    metrics_digest,
    migrate_store,
    plan_chains,
    simulate_cell,
)
from repro.experiments.config import WorkloadSpec

from tests.conftest import write_legacy_json

CELLS = [
    Cell(WorkloadSpec("CTC", 60, seed=2, load_scale=0.75), "easy", "FCFS"),
    Cell(WorkloadSpec("CTC", 60, seed=2, load_scale=0.75), "cons", "SJF"),
    Cell(WorkloadSpec("CTC", 45, seed=5, load_scale=0.75, estimate="r2"), "nobf", "FCFS"),
]

#: How a cache directory under test got its entries.
HISTORIES = ["json", "sqlite"]


@pytest.fixture(scope="module")
def results():
    return {cell: simulate_cell(cell) for cell in CELLS}


def fill(tmp_path, history, results):
    """A store over ``tmp_path / history`` holding ``results``."""
    cache_dir = tmp_path / history
    if history == "json":
        write_legacy_json(tmp_path / "legacy", results.items())
        assert migrate_store(tmp_path / "legacy", cache_dir) == len(results)
    else:
        ResultStore(cache_dir).put_many(results.items())
    return ResultStore(cache_dir)


@pytest.mark.parametrize("backend", HISTORIES)
class TestEachBackend:
    def test_round_trip_is_digest_identical(self, backend, tmp_path, results):
        fresh = fill(tmp_path, backend, results)
        loaded = fresh.get_many(CELLS)
        assert len(loaded) == len(CELLS)
        assert fresh.stats.disk_hits == len(CELLS)
        for cell, stored in loaded.items():
            assert metrics_digest(stored.metrics) == metrics_digest(
                results[cell].metrics
            )
            assert stored.events_processed == results[cell].events_processed
            assert stored.sim_seconds == results[cell].sim_seconds

    def test_resolve_many_reports_bookkeeping_without_decoding(
        self, backend, tmp_path, results
    ):
        fresh = fill(tmp_path, backend, results)
        missing = Cell(WorkloadSpec("CTC", 33, seed=9, load_scale=0.75), "easy", "FCFS")
        resolved = fresh.resolve_many(CELLS + [missing])
        assert set(resolved) == set(CELLS)
        for cell, (events, sim_seconds) in resolved.items():
            assert events == results[cell].events_processed
            assert sim_seconds == results[cell].sim_seconds
        assert len(fresh) == 0  # nothing was promoted into memory

    def test_entry_count_and_size(self, backend, tmp_path, results):
        store = fill(tmp_path, backend, results)
        assert store.entry_count() == len(CELLS)
        assert store.size_bytes() > 0

    def test_schema_mismatch_is_stale_and_reaped(self, backend, tmp_path, results):
        store = fill(tmp_path, backend, results)
        key = CELLS[0].content_hash()
        [payload] = store.backend.load_many([key]).payloads.values()
        payload["schema"] = 999
        store.backend.put_many([(key, payload)])
        fresh = ResultStore(cache_dir=tmp_path / backend)
        assert fresh.get(CELLS[0]) is None
        assert fresh.stats.stale_dropped == 1
        assert fresh.stats.corrupt_dropped == 0
        assert fresh.entry_count() == len(CELLS) - 1  # deleted on sight

    def test_wrong_cell_payload_is_corrupt(self, backend, tmp_path, results):
        store = fill(tmp_path, backend, results)
        # Plant CELLS[1]'s payload under CELLS[0]'s key: identity check fails.
        key = CELLS[0].content_hash()
        [other] = store.backend.load_many([CELLS[1].content_hash()]).payloads.values()
        store.backend.put_many([(key, other)])
        fresh = ResultStore(cache_dir=tmp_path / backend)
        assert fresh.get(CELLS[0]) is None
        assert fresh.stats.corrupt_dropped == 1
        assert fresh.stats.stale_dropped == 0

    def test_delete_and_rewrite_serve_the_newest(self, backend, tmp_path, results):
        store = fill(tmp_path, backend, results)
        key = CELLS[0].content_hash()
        [payload] = store.backend.load_many([key]).payloads.values()
        payload["events_processed"] = 123456
        store.backend.put_many([(key, payload)])  # rewrite: newest wins
        fresh = ResultStore(cache_dir=tmp_path / backend)
        assert fresh.get(CELLS[0]).events_processed == 123456
        assert fresh.backend.delete_many([key]) == 1
        assert fresh.backend.delete_many([key]) == 0
        assert fresh.entry_count() == len(CELLS) - 1

    def test_gc_sweeps_stale_entries(self, backend, tmp_path, results):
        store = fill(tmp_path, backend, results)
        key = CELLS[2].content_hash()
        [payload] = store.backend.load_many([key]).payloads.values()
        payload["schema"] = 0
        store.backend.put_many([(key, payload)])
        fresh = ResultStore(cache_dir=tmp_path / backend)
        preview = fresh.gc(dry_run=True)
        assert (preview.kept, preview.stale_removed) == (len(CELLS) - 1, 1)
        assert fresh.entry_count() == len(CELLS)  # dry run deleted nothing
        report = fresh.gc()
        assert (report.kept, report.stale_removed) == (len(CELLS) - 1, 1)
        assert fresh.entry_count() == len(CELLS) - 1


class TestCrossBackendEquivalence:
    def test_all_backends_serve_identical_digests(self, tmp_path, results):
        digests = {}
        for history in HISTORIES:
            fresh = fill(tmp_path, history, results)
            digests[history] = {
                cell.content_hash(): metrics_digest(stored.metrics)
                for cell, stored in fresh.get_many(CELLS).items()
            }
        assert digests["json"] == digests["sqlite"]

    def test_migrate_preserves_every_entry(self, tmp_path, results):
        """README's first example once wrote JSON under ``--cache-dir D``;
        ``sweep --dist --cache-dir D`` must not shadow it.  In place:
        refused un-migrated, then every entry a hit through the queue
        executor, digests identical to the JSON originals."""
        legacy = tmp_path / "D"
        write_legacy_json(legacy, results.items())
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            DistExecutor(legacy)
        assert migrate_store(legacy, legacy) == len(CELLS)
        dist = DistExecutor(legacy)
        metrics = dist.execute(CELLS)
        assert dist.last_report.cache_hits == len(CELLS)
        assert dist.last_report.simulated == 0
        assert dist.store.stats.stale_dropped == dist.store.stats.corrupt_dropped == 0
        for cell, got in zip(CELLS, metrics):
            assert metrics_digest(got) == metrics_digest(results[cell].metrics)
        dist.close()
        assert len(list(legacy.glob("*.json"))) == len(CELLS)  # left in place

    def test_migrate_skips_unreadable_files(self, tmp_path, results):
        legacy = tmp_path / "legacy"
        write_legacy_json(legacy, results.items())
        (legacy / ("0" * 64 + ".json")).write_text("not json at all {{{")
        (legacy / ("1" * 64 + ".json")).write_text('{"schema": 1}')
        assert migrate_store(legacy, tmp_path / "dest") == len(CELLS)
        assert ResultStore(tmp_path / "dest").entry_count() == len(CELLS)

    def test_migrate_requires_disk_stores(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no cache directory"):
            migrate_store(tmp_path / "absent", tmp_path / "dest")
        assert not (tmp_path / "dest").exists()


class TestBackendSelection:
    def test_existing_layouts_are_sniffed(self, tmp_path, results):
        # Current layout: opens and serves.
        fill(tmp_path, "sqlite", results)
        assert len(ResultStore(tmp_path / "sqlite").get_many(CELLS)) == len(CELLS)
        # Legacy JSON with no database: refused, naming the way out.
        write_legacy_json(tmp_path / "old", results.items())
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            ResultStore(tmp_path / "old")
        # Retired shards: refused, and told there is nothing to import.
        (tmp_path / "shards_dir" / "shards").mkdir(parents=True)
        with pytest.raises(ConfigurationError, match="retired.*reproducible"):
            ResultStore(tmp_path / "shards_dir")
        # Neither refusal left a database behind to mask the next attempt.
        assert not (tmp_path / "old" / "results.sqlite").exists()
        assert not (tmp_path / "shards_dir" / "results.sqlite").exists()

    def test_fresh_and_absent_directories_open_empty(self, tmp_path):
        (tmp_path / "empty").mkdir()
        for cache_dir in (tmp_path / "empty", tmp_path / "absent"):
            assert ResultStore(cache_dir).entry_count() == 0


class TestMemoryLimit:
    def test_lru_evicts_oldest_beyond_cap(self, results):
        store = ResultStore(memory_limit=2)
        a, b, c = CELLS
        store.put(a, results[a])
        store.put(b, results[b])
        assert store.get(a) is results[a]  # refresh a: b is now oldest
        store.put(c, results[c])
        assert len(store) == 2
        assert store.get(b) is None
        assert store.get(a) is results[a]
        assert store.get(c) is results[c]

    def test_disk_layer_outlives_eviction(self, tmp_path, results):
        store = ResultStore(cache_dir=tmp_path, memory_limit=1)
        store.put_many(results.items())
        assert len(store) == 1  # only the newest survives in memory
        for cell in CELLS:  # ...but every cell reloads from disk
            assert store.get(cell) is not None

    def test_invalid_limit_is_rejected(self):
        with pytest.raises(ValueError):
            ResultStore(memory_limit=0)


class TestExecutorBulkResolution:
    def test_warm_batch_costs_one_backend_query(self, tmp_path, results):
        store = fill(tmp_path, "sqlite", results)
        calls = {"load": 0, "resolve": 0}
        inner_load = store.backend.load_many
        inner_resolve = store.backend.resolve_many

        def counting_load(keys):
            calls["load"] += 1
            return inner_load(keys)

        def counting_resolve(keys):
            calls["resolve"] += 1
            return inner_resolve(keys)

        store.backend.load_many = counting_load
        store.backend.resolve_many = counting_resolve
        executor = CellExecutor(store=store)
        executor.execute(CELLS)
        assert executor.last_report.cache_hits == len(CELLS)
        assert executor.last_report.simulated == 0
        assert calls["load"] + calls["resolve"] == 1

    def test_serial_misses_commit_one_batch_per_chain_group(self, tmp_path):
        cells = [
            Cell(WorkloadSpec("CTC", n_jobs, seed=2, load_scale=0.75), "easy", "FCFS")
            for n_jobs in (30, 45, 60)
        ] + [Cell(WorkloadSpec("CTC", 30, seed=7, load_scale=0.75), "cons", "FCFS")]
        store = ResultStore(cache_dir=tmp_path)
        calls = {"put": 0}
        inner_put = store.backend.put_many

        def counting_put(items):
            calls["put"] += 1
            return inner_put(items)

        store.backend.put_many = counting_put
        CellExecutor(store=store).execute(cells)
        assert calls["put"] == len(plan_chains(cells))
        assert store.entry_count() == len(cells)
