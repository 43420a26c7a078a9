"""The result store's physical layer.

One layout: :class:`~repro.exec.backends.sqlite.SqliteBackend`, a single
WAL-mode database per cache directory — batched transactional writes,
safe for concurrent writer processes, and the host of the lease queue.
:mod:`~repro.exec.backends.jsondir` reads the retired JSON-per-file
layout for ``repro store migrate`` and refuses, by name, to open a
legacy directory as if it were empty.
"""

from __future__ import annotations

from repro.exec.backends.base import EntryMeta, LoadResult, Resolution
from repro.exec.backends.jsondir import iter_legacy_entries, refuse_legacy_layout
from repro.exec.backends.sqlite import DB_FILENAME, SqliteBackend

__all__ = [
    "DB_FILENAME",
    "EntryMeta",
    "LoadResult",
    "Resolution",
    "SqliteBackend",
    "iter_legacy_entries",
    "refuse_legacy_layout",
]
