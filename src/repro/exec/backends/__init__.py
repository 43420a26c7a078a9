"""The result store's physical layer.

One layout: :class:`~repro.exec.backends.sqlite.SqliteBackend`, a single
WAL-mode database per cache directory — batched transactional writes,
safe for concurrent writer processes, and the host of the lease queue.
"""

from __future__ import annotations

from repro.exec.backends.base import EntryMeta, LoadResult, Resolution
from repro.exec.backends.sqlite import DB_FILENAME, SqliteBackend

__all__ = [
    "DB_FILENAME",
    "EntryMeta",
    "LoadResult",
    "Resolution",
    "SqliteBackend",
]
