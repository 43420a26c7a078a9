"""Store differential suite: a cache serves what was put into it.

There is one disk layout, a SQLite database per cache directory.  The
store front owns all semantic judgment (schema staleness, cell
verification, metrics decoding): same hits, same digests, same
stale/corrupt classification.  Files of the retired layouts
(JSON-per-file entries, npz shards) are ignored: such a directory opens
as an empty store and its cells are re-simulated, which is what their
stale schema stamps would cause anyway.  These tests drive the public
:class:`ResultStore` API plus targeted backend-level corruption.
"""

import json

import pytest

from repro.exec import (
    Cell,
    CellExecutor,
    DistExecutor,
    ResultStore,
    metrics_digest,
    plan_chains,
    run_cells,
    simulate_cell,
)
from repro.exec.serialize import metrics_to_payload
from repro.exec.store import stored_payload
from repro.experiments.config import WorkloadSpec

CELLS = [
    Cell(WorkloadSpec("CTC", 60, seed=2, load_scale=0.75), "easy", "FCFS"),
    Cell(WorkloadSpec("CTC", 60, seed=2, load_scale=0.75), "cons", "SJF"),
    Cell(WorkloadSpec("CTC", 45, seed=5, load_scale=0.75, estimate="r2"), "nobf", "FCFS"),
]

#: How a cache directory under test got its entries.
HISTORIES = ["sqlite"]


@pytest.fixture(scope="module")
def results():
    return {cell: simulate_cell(cell) for cell in CELLS}


def fill(tmp_path, history, results):
    """A store over ``tmp_path / history`` holding ``results``."""
    cache_dir = tmp_path / history
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


def write_retired_layouts(cache_dir, results):
    """Fill ``cache_dir`` with schema-1 ``<hash>.json`` entries and a
    ``shards/`` directory; return every file's bytes."""
    (cache_dir / "shards").mkdir(parents=True)
    (cache_dir / "shards" / "000.npz").write_bytes(b"retired shard")
    for cell, stored in results.items():
        # Schema 1 stored the row form as JSON.
        payload = {
            **stored_payload(cell, stored),
            "schema": 1,
            "metrics": metrics_to_payload(stored.metrics),
        }
        (cache_dir / f"{cell.content_hash()}.json").write_text(json.dumps(payload))
    return {p: p.read_bytes() for p in cache_dir.rglob("*") if p.is_file()}


class TestCrossBackendEquivalence:
    def test_all_backends_serve_identical_digests(self, tmp_path, results):
        """A memory-only store, a native database, and the queue executor
        over a retired-layout directory and over a fresh one all serve
        the digests of a direct simulation."""
        expected = [metrics_digest(results[cell].metrics) for cell in CELLS]
        memory = ResultStore()
        memory.put_many(results.items())
        native = fill(tmp_path, "sqlite", results)
        for store in (memory, native):
            loaded = store.get_many(CELLS)
            assert [metrics_digest(loaded[cell].metrics) for cell in CELLS] == expected

        write_retired_layouts(tmp_path / "D", results)
        for name in ("D", "fresh"):
            dist = DistExecutor(tmp_path / name)
            metrics = run_cells(CELLS, executor=dist)
            assert dist.last_report.simulated == len(CELLS)
            assert dist.last_report.cache_hits == 0
            dist.close()
            assert [metrics_digest(m) for m in metrics] == expected
        assert (tmp_path / "D" / "results.sqlite").exists()


class TestBackendSelection:
    def test_existing_layouts_are_sniffed(self, tmp_path, results):
        """Only ``results.sqlite`` is read: ``<hash>.json`` entries and a
        ``shards/`` directory are left alone and the store opens empty."""
        # Current layout: opens and serves.
        fill(tmp_path, "sqlite", results)
        assert len(ResultStore(tmp_path / "sqlite").get_many(CELLS)) == len(CELLS)
        # Retired layouts: not refused, not imported, not touched.
        old = tmp_path / "D"
        before = write_retired_layouts(old, results)
        store = ResultStore(old)
        assert store.entry_count() == 0
        assert store.get_many(CELLS) == {}
        assert store.stats.stale_dropped == store.stats.corrupt_dropped == 0
        assert {p: p.read_bytes() for p in before} == before

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
