"""Concurrent multi-process writers must never tear or lose committed rows.

The SQLite backend claims WAL-mode safety for multiple writer processes
sharing one cache directory.  These tests spawn real processes,
synchronize them on a barrier so their write bursts genuinely overlap,
and then audit the directory from the parent:

* **disjoint cells** — every process's rows must all be present;
* **same cells** — last writer wins row by row, but each surviving row
  must be internally consistent (all fields from one writer, never a
  torn mix of two).
"""

import multiprocessing
import struct

from repro.exec.backends import SqliteBackend

KEYS_PER_WRITER = 120
WRITERS = 3
BATCH = 20

# Spawn (not fork): workers re-import this module and build fresh
# backend handles, exactly like independent sweep invocations would.
_CTX = multiprocessing.get_context("spawn")


def _key(i: int) -> str:
    return f"{i:08d}" + "k" * 56  # shaped like a content hash (64 chars)


#: Stand-in metrics bytes: utilization, makespan and one four-value
#: record.  The backend stores them unread, as it does real ones.
_METRICS = struct.Struct("<6d")


def _payload(i: int, tag: int) -> dict:
    # ``tag`` is woven into several fields so a torn row (fields from two
    # writers mixed) is detectable.
    return {
        "schema": 1,
        "cell": {"i": i, "tag": tag},
        "events_processed": tag,
        "sim_seconds": float(tag),
        "metrics": _METRICS.pack(*[float(tag)] * 6),
    }


def _write_disjoint(cache_dir, writer_id, barrier):
    backend = SqliteBackend(cache_dir)
    base = writer_id * KEYS_PER_WRITER
    barrier.wait()
    for lo in range(0, KEYS_PER_WRITER, BATCH):
        backend.put_many(
            [
                (_key(base + i), _payload(base + i, writer_id))
                for i in range(lo, lo + BATCH)
            ]
        )
    backend.close()


def _write_same(cache_dir, writer_id, barrier):
    backend = SqliteBackend(cache_dir)
    barrier.wait()
    for lo in range(0, KEYS_PER_WRITER, BATCH):
        backend.put_many(
            [(_key(i), _payload(i, writer_id)) for i in range(lo, lo + BATCH)]
        )
    backend.close()


def _run_writers(target, cache_dir):
    barrier = _CTX.Barrier(WRITERS)
    procs = [
        _CTX.Process(target=target, args=(str(cache_dir), w, barrier))
        for w in range(WRITERS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0


def test_disjoint_writers_lose_nothing(tmp_path):
    _run_writers(_write_disjoint, tmp_path)
    backend = SqliteBackend(tmp_path)
    total = WRITERS * KEYS_PER_WRITER
    assert backend.count() == total
    keys = [_key(i) for i in range(total)]
    resolution = backend.resolve_many(keys)
    assert not resolution.corrupt
    assert len(resolution.hits) == total
    for i, key in enumerate(keys):
        assert resolution.hits[key].events_processed == i // KEYS_PER_WRITER
    loaded = backend.load_many(keys[:: KEYS_PER_WRITER // 4])
    assert not loaded.corrupt
    for key, payload in loaded.payloads.items():
        assert payload["cell"]["tag"] == payload["events_processed"]


def test_same_cell_writers_never_tear_rows(tmp_path):
    _run_writers(_write_same, tmp_path)
    backend = SqliteBackend(tmp_path)
    assert backend.count() == KEYS_PER_WRITER
    keys = [_key(i) for i in range(KEYS_PER_WRITER)]
    loaded = backend.load_many(keys)
    assert not loaded.corrupt
    assert len(loaded.payloads) == KEYS_PER_WRITER
    for payload in loaded.payloads.values():
        # Whichever writer won, the row must be wholly theirs.
        tag = payload["events_processed"]
        assert tag in range(WRITERS)
        assert payload["cell"]["tag"] == tag
        assert payload["sim_seconds"] == float(tag)
        utilization, makespan, *record = _METRICS.unpack(payload["metrics"])
        assert utilization == makespan == float(tag)
        assert record == [float(tag)] * 4
