"""Read-only access to the retired cache layouts.

Two layouts predate the single SQLite database
(:mod:`repro.exec.backends.sqlite`):

* **JSON-per-file** — ``<cache_dir>/<key>.json``, one entry payload per
  file; what every ``--cache-dir`` wrote before the store went
  SQLite-only.  It resolved a warm grid at 1/46 of SQLite's rate and
  could not host the lease queue.  :func:`iter_legacy_entries` reads it
  so ``repro store migrate SRC DEST`` can import one; nothing writes it.
* **npz shards** — ``<cache_dir>/shards/``.  Selectable only by a flag
  nothing set by default, so there is no importer: results are
  reproducible, and a shard directory is refused by name.

:func:`refuse_legacy_layout` is what keeps an old directory from being
silently shadowed by a fresh ``results.sqlite`` written beside it — the
orphaned-cache defect (DESIGN.md section 10).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigurationError
from repro.exec.backends.sqlite import DB_FILENAME

__all__ = ["iter_legacy_entries", "refuse_legacy_layout"]

_SHARD_DIRNAME = "shards"

#: What an entry payload must carry to be importable (see ``base.py``).
_ENTRY_KEYS = {"schema", "cell", "events_processed", "sim_seconds", "metrics"}


def iter_legacy_entries(cache_dir: str | os.PathLike) -> Iterator[tuple[str, dict]]:
    """Yield ``(key, payload)`` for every readable ``<key>.json`` entry.

    Unreadable files and files that are not an entry payload are
    skipped: they would never have served, and the store front re-judges
    schema and cell identity of everything that is imported.
    """
    for path in sorted(Path(cache_dir).glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(payload, dict) and _ENTRY_KEYS <= payload.keys():
            yield path.stem, payload


def refuse_legacy_layout(cache_dir: str | os.PathLike) -> None:
    """Raise if ``cache_dir`` holds a retired layout and no database.

    A directory that already has ``results.sqlite`` is current — that is
    also the state an in-place ``migrate`` leaves behind — and costs one
    ``stat`` here.
    """
    root = Path(cache_dir)
    if (root / DB_FILENAME).exists() or not root.is_dir():
        return
    if (root / _SHARD_DIRNAME).is_dir():
        raise ConfigurationError(
            f"{root} holds the retired npz-shard cache layout, which has no "
            "importer; results are reproducible — point --cache-dir at a "
            "fresh directory and re-run"
        )
    if next(root.glob("*.json"), None) is not None:
        raise ConfigurationError(
            f"{root} holds the legacy JSON-per-file cache layout; import it "
            f"with 'repro store migrate {root} DEST' (DEST may be {root} "
            "itself) before using it as a cache directory"
        )
