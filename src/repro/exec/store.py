"""Persistent, layered result store for simulation cells.

Two layers under one interface:

* an **in-process memory layer** — an LRU-bounded mapping keyed by cell
  hash (successor of the old module-level ``_cell_cache``), capped at
  :data:`DEFAULT_MEMORY_LIMIT` entries by default so long-lived
  processes cannot grow without bound;
* an optional **disk layer**: one WAL-mode SQLite database per cache
  directory (:class:`~repro.exec.backends.sqlite.SqliteBackend`), which
  is also what hosts the lease queue.

The store is **batch-native**: :meth:`ResultStore.get_many` /
:meth:`~ResultStore.put_many` settle a whole grid's cache state in O(1)
backend calls, which is what keeps warm-path resolution cheap at
production sweep scale; the single-cell :meth:`~ResultStore.get` /
:meth:`~ResultStore.put` are thin wrappers over them.

Semantic judgment lives here, not in the backend:

* an entry whose ``schema`` stamp differs from the current
  :data:`~repro.exec.cell.CACHE_SCHEMA_VERSION` is **stale** — dropped
  and counted in :attr:`StoreStats.stale_dropped` (a schema bump turning
  a healthy cache into a crime scene was a reporting bug, not damage);
* an entry that is unreadable, fails cell-identity verification, or
  fails metrics decoding is **corrupt** — dropped and counted in
  :attr:`StoreStats.corrupt_dropped`.

Either way the cell is simply re-simulated, never fatal.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.exec.backends import SqliteBackend
from repro.exec.cell import CACHE_SCHEMA_VERSION, Cell
from repro.exec.serialize import metrics_from_payload, metrics_to_columns
from repro.metrics.collector import RunMetrics

__all__ = [
    "StoredResult",
    "StoreStats",
    "ResultStore",
    "GcReport",
    "stored_payload",
    "DEFAULT_MEMORY_LIMIT",
]

#: Default cap on the in-process memory layer, in entries.  Generous —
#: a full ``experiment all`` sweep fits many times over — while bounding
#: a long-lived serve-mode process the way the runner's LRU-bounded
#: workload cache (PR 1) bounds workloads.
DEFAULT_MEMORY_LIMIT = 65_536


@dataclass(frozen=True)
class StoredResult:
    """A cell's simulation output plus its bookkeeping facts."""

    metrics: RunMetrics
    events_processed: int = 0
    sim_seconds: float = 0.0


def stored_payload(cell: Cell, stored: StoredResult) -> dict:
    """The canonical on-disk payload for one cell's result.

    Shared by :meth:`ResultStore.put_many` and the distributed queue's
    same-transaction completion path, so a worker-committed row is
    byte-identical to one the store would have written.
    """
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "cell": cell.to_payload(),
        "events_processed": stored.events_processed,
        "sim_seconds": stored.sim_seconds,
        "metrics": metrics_to_columns(stored.metrics),
    }


@dataclass
class StoreStats:
    """Running counters of one store's traffic."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries dropped because their content was damaged: unreadable
    #: files/rows, cell-identity mismatches, undecodable metrics.
    corrupt_dropped: int = 0
    #: Entries dropped because they were written under a different
    #: CACHE_SCHEMA_VERSION — a clean generational turnover, not damage.
    stale_dropped: int = 0

    @property
    def hits(self) -> int:
        """Total lookups answered from either layer."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` pass found and removed."""

    kept: int = 0
    stale_removed: int = 0
    corrupt_removed: int = 0

    @property
    def removed(self) -> int:
        return self.stale_removed + self.corrupt_removed


class ResultStore:
    """Layered cache of per-cell :class:`RunMetrics`.

    ``cache_dir=None`` (the default) keeps the store memory-only;
    passing a directory enables persistence across processes and
    invocations in that directory's ``results.sqlite``; any other file
    in the directory is ignored.  ``memory_limit`` caps the in-process
    layer (``None`` = unbounded).
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        memory_limit: int | None = DEFAULT_MEMORY_LIMIT,
    ) -> None:
        if memory_limit is not None and memory_limit < 1:
            raise ValueError(f"memory_limit must be >= 1 or None, got {memory_limit}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend: SqliteBackend | None = None
        if self.cache_dir is not None:
            self.backend = SqliteBackend(self.cache_dir)
        self.memory_limit = memory_limit
        self._memory: OrderedDict[str, StoredResult] = OrderedDict()
        self.stats = StoreStats()

    def __len__(self) -> int:
        return len(self._memory)

    # -- single-cell API (thin wrappers over the batch calls) ------------------

    def get(self, cell: Cell) -> StoredResult | None:
        """Look a cell up — memory first, then disk; None on miss.

        A disk hit is promoted into the memory layer so repeated lookups
        within one process return the identical object.
        """
        return self.get_many([cell]).get(cell)

    def put(self, cell: Cell, stored: StoredResult) -> None:
        """Record a cell's result in memory and (if enabled) on disk."""
        self.put_many([(cell, stored)])

    # -- batch API -------------------------------------------------------------

    def get_many(self, cells: Sequence[Cell]) -> dict[Cell, StoredResult]:
        """Resolve and decode a batch of cells in O(1) backend calls.

        Memory-layer hits come back as the identical objects previously
        stored; disk hits are decoded, verified (schema stamp and cell
        identity), and promoted into the memory layer.  Cells absent
        from the result are misses.  Stale or corrupt disk entries are
        dropped (and deleted) along the way.
        """
        resolved: dict[Cell, StoredResult] = {}
        pending: list[tuple[str, Cell]] = []
        for cell in dict.fromkeys(cells):
            key = cell.content_hash()
            stored = self._memory_get(key)
            if stored is not None:
                self.stats.memory_hits += 1
                resolved[cell] = stored
            else:
                pending.append((key, cell))
        if not pending:
            return resolved
        if self.backend is None:
            self.stats.misses += len(pending)
            return resolved
        loaded = self.backend.load_many([key for key, _ in pending])
        doomed: list[str] = list(loaded.corrupt)
        self.stats.corrupt_dropped += len(loaded.corrupt)
        for key, cell in pending:
            payload = loaded.payloads.get(key)
            stored = None
            if payload is not None:
                stored = self._decode(key, cell, payload, doomed)
            if stored is None:
                self.stats.misses += 1
                continue
            self.stats.disk_hits += 1
            self._memory_put(key, stored)
            resolved[cell] = stored
        if doomed:
            self.backend.delete_many(doomed)
        return resolved

    def put_many(self, pairs: Iterable[tuple[Cell, StoredResult]]) -> None:
        """Record a batch of results in memory and (if enabled) on disk.

        One call is one backend write batch — a single transaction.
        """
        pairs = list(pairs)
        items: list[tuple[str, dict]] = []
        for cell, stored in pairs:
            key = cell.content_hash()
            self._memory_put(key, stored)
            if self.backend is not None:
                items.append((key, self._encode(cell, stored)))
        if self.backend is not None and items:
            self.backend.put_many(items)
        self.stats.writes += len(pairs)

    def remember(self, pairs: Iterable[tuple[Cell, StoredResult]]) -> None:
        """Record results in the memory layer only: for results already
        on disk by another writer's commit (a queue worker's)."""
        for cell, stored in pairs:
            self._memory_put(cell.content_hash(), stored)

    def resolve_many(self, cells: Sequence[Cell]) -> dict[Cell, tuple[int, float]]:
        """Bulk cache-state resolution: which cells are warm, and their
        ``(events_processed, sim_seconds)`` bookkeeping — metrics payloads
        are never materialized.

        This is the cheap form of :meth:`get_many` for planners and
        benchmarks that only need membership; schema-stale and corrupt
        entries are dropped exactly as ``get_many`` would.  Counted in
        ``stats`` as lookups like any other.
        """
        # This loop runs once per cell of a grid before anything is
        # simulated, so it is written flat: local bindings, key-set dedup
        # (equal cells share a content hash), stats folded in at the end.
        resolved: dict[Cell, tuple[int, float]] = {}
        stats = self.stats
        memory = self._memory
        pending_keys: list[str] = []
        pending_cells: list[Cell] = []
        seen: set[str] = set()
        memory_hits = 0
        for cell in cells:
            key = cell.content_hash()
            if key in seen:
                continue
            seen.add(key)
            stored = memory.get(key)
            if stored is not None:
                memory.move_to_end(key)
                memory_hits += 1
                resolved[cell] = (stored.events_processed, stored.sim_seconds)
            else:
                pending_keys.append(key)
                pending_cells.append(cell)
        stats.memory_hits += memory_hits
        if not pending_keys:
            return resolved
        if self.backend is None:
            stats.misses += len(pending_keys)
            return resolved
        resolution = self.backend.resolve_many(pending_keys)
        hits = resolution.hits
        doomed: list[str] = list(resolution.corrupt)
        stats.corrupt_dropped += len(resolution.corrupt)
        current = CACHE_SCHEMA_VERSION
        misses = disk_hits = stale = 0
        for key, cell in zip(pending_keys, pending_cells):
            meta = hits.get(key)
            if meta is None:
                misses += 1
            elif meta.schema != current:
                stale += 1
                misses += 1
                doomed.append(key)
            else:
                disk_hits += 1
                resolved[cell] = (meta.events_processed, meta.sim_seconds)
        stats.misses += misses
        stats.disk_hits += disk_hits
        stats.stale_dropped += stale
        if doomed:
            self.backend.delete_many(doomed)
        return resolved

    # -- maintenance -----------------------------------------------------------

    def clear_memory(self) -> None:
        """Drop the in-process layer (persisted entries are untouched)."""
        self._memory.clear()

    def entry_count(self) -> int:
        """Entries persisted on disk (0 when memory-only)."""
        return self.backend.count() if self.backend is not None else 0

    def size_bytes(self) -> int:
        """Bytes the disk layer occupies (0 when memory-only)."""
        return self.backend.size_bytes() if self.backend is not None else 0

    def gc(self, *, dry_run: bool = False) -> GcReport:
        """Sweep the disk layer, dropping stale and corrupt entries.

        Walks every stored key through the backend's bulk resolution,
        classifies, and deletes (unless ``dry_run``).
        """
        report = GcReport()
        if self.backend is None:
            return report
        keys = self.backend.keys()
        resolution = self.backend.resolve_many(keys)
        stale = [
            key
            for key, meta in resolution.hits.items()
            if meta.schema != CACHE_SCHEMA_VERSION
        ]
        corrupt = list(resolution.corrupt)
        # Keys that list but resolve to nothing are unreadable too.
        corrupt.extend(
            key for key in keys if key not in resolution.hits and key not in corrupt
        )
        report.stale_removed = len(stale)
        report.corrupt_removed = len(corrupt)
        report.kept = len(keys) - report.removed
        if not dry_run:
            self.backend.delete_many(stale + corrupt)
            self.stats.stale_dropped += len(stale)
            self.stats.corrupt_dropped += len(corrupt)
        return report

    # -- internals -------------------------------------------------------------

    def _memory_get(self, key: str) -> StoredResult | None:
        stored = self._memory.get(key)
        if stored is not None:
            self._memory.move_to_end(key)
        return stored

    def _memory_put(self, key: str, stored: StoredResult) -> None:
        self._memory[key] = stored
        self._memory.move_to_end(key)
        if self.memory_limit is not None:
            while len(self._memory) > self.memory_limit:
                self._memory.popitem(last=False)

    def _encode(self, cell: Cell, stored: StoredResult) -> dict:
        return stored_payload(cell, stored)

    def _decode(
        self, key: str, cell: Cell, payload: dict, doomed: list[str]
    ) -> StoredResult | None:
        """Verify and rebuild one loaded payload; None (and doom) on failure."""
        try:
            if payload["schema"] != CACHE_SCHEMA_VERSION:
                self.stats.stale_dropped += 1
                doomed.append(key)
                return None
            if payload["cell"] != cell.to_payload():
                raise ValueError("stored cell does not match lookup key")
            return StoredResult(
                metrics=metrics_from_payload(payload["metrics"]),
                events_processed=int(payload["events_processed"]),
                sim_seconds=float(payload["sim_seconds"]),
            )
        except Exception:
            # Any malformed content — a truncated buffer, a value the
            # decoder's Job/CompletedJob column checks reject, a row
            # serving the wrong cell — is corruption: drop and re-simulate.
            self.stats.corrupt_dropped += 1
            doomed.append(key)
            return None

