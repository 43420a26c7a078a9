"""The result-store backend contract: entry payloads and bulk outcomes.

The *backend* is the physical layer under :class:`repro.exec.store.ResultStore`
(:class:`~repro.exec.backends.sqlite.SqliteBackend`, the only one): it
maps string keys (cell content hashes) to *entry payloads*, one dict
per cell::

    {
        "schema": <int>,             # CACHE_SCHEMA_VERSION at write time
        "cell": <dict>,              # Cell.to_payload() of the owning cell
        "events_processed": <int>,
        "sim_seconds": <float>,
        "metrics": <bytes>,          # metrics_to_columns() output
    }

The backend stores and returns payloads verbatim — the metrics bytes
unread; all *semantic* judgment — schema staleness, cell-identity
verification, metrics decoding — lives in the store front
(``tests/exec/test_backends.py``).

The contract is **batch-native**: the primitive operations are
``resolve_many`` (cheap membership + bookkeeping facts, *without*
materializing metrics) and ``load_many`` (full payloads), so a sweep
executor can settle the cache state of an entire grid in O(1) backend
calls instead of one disk probe per cell.  Single-key traffic is
expressed through the batch calls.

Physical corruption (an undecodable row) is reported
via the ``corrupt`` key lists rather than raised: a damaged entry is
never fatal, the store drops it and the cell is re-simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["EntryMeta", "Resolution", "LoadResult"]


class EntryMeta(NamedTuple):
    """The bookkeeping facts of one stored entry, metrics excluded.

    A NamedTuple rather than a dataclass: warm-path resolution builds one
    of these per cached cell, so construction cost is on the 100k-cell
    hot path (``EntryMeta._make`` over zipped columns is the cheap way
    to mint them in bulk).
    """

    schema: int
    events_processed: int
    sim_seconds: float


@dataclass
class Resolution:
    """Outcome of a bulk ``resolve_many`` call.

    Keys absent from both mappings are misses.  ``corrupt`` keys were
    present but physically unreadable; the caller decides whether to
    delete them.
    """

    hits: dict[str, EntryMeta] = field(default_factory=dict)
    corrupt: list[str] = field(default_factory=list)


@dataclass
class LoadResult:
    """Outcome of a bulk ``load_many`` call."""

    payloads: dict[str, dict] = field(default_factory=dict)
    corrupt: list[str] = field(default_factory=list)
