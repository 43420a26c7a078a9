"""SQLite result-store backend: meta/payload tables, WAL mode, batched writes.

Layout: ``<cache_dir>/results.sqlite`` holding two tables keyed by cell
content hash.  ``meta`` carries only the bookkeeping facts (schema
version, event count, simulated seconds) — rows of ~100 bytes — while
the serialized cell and metrics JSON live in the separate ``payloads``
table.  The split is what makes :meth:`SqliteBackend.resolve_many`
fast at grid scale: warm-path resolution walks a B-tree of compact
``meta`` rows and never pages through multi-kilobyte metrics text,
which a single fat table would force (the payload bytes sit inline in
the same B-tree pages the key probes traverse).  :meth:`load_many`
joins the two tables when metrics are actually wanted.

Concurrency: the database runs in WAL journal mode with a generous busy
timeout, so multiple *processes* sharing one cache directory can write
simultaneously — writers serialize on the WAL lock instead of failing,
and readers never block on writers.  Every ``put_many`` is one
transaction, which is both the durability unit (a killed process loses at
most the in-flight batch, never previously committed rows) and the reason
bulk writes are an order of magnitude faster than per-file JSON.

Connections are opened lazily and re-opened after a ``fork`` (SQLite
handles must not cross processes), keyed by pid.

Beside the result tables the backend can host a third table, ``queue``
— the physical layer of the lease-based work-stealing queue
(:mod:`repro.exec.queue`).  All queue SQL lives here, under the same
WAL connection discipline as the result tables: claims run inside one
``BEGIN IMMEDIATE`` transaction (so two workers can never lease the
same chain group), and :meth:`SqliteBackend.queue_complete` writes
result rows and flips leases to ``done`` **in the same transaction**,
which is what makes a killed worker lose at most its in-flight group,
never a committed one.  The table is created lazily on first queue use,
so an ordinary result cache never grows an unexplained extra table.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Sequence

from repro.exec.backends.base import EntryMeta, LoadResult, Resolution

__all__ = ["SqliteBackend", "DB_FILENAME"]

#: The database file a cache directory's SQLite backend lives in.
DB_FILENAME = "results.sqlite"

#: Seconds a writer waits on the WAL lock before giving up.  Sweeps
#: batch thousands of rows per transaction, so contention windows are
#: short; 30s absorbs even a slow competing bulk write.
BUSY_TIMEOUT_SECONDS = 30.0

#: Attempts at the first-open sequence (journal-mode switch + DDL).  The
#: switch to WAL needs an exclusive lock that SQLite refuses at once —
#: the busy timeout does not apply — when another process is mid-open on
#: the same fresh file, so racing first-openers back off and retry; by
#: then the file is WAL and the switch is skipped.  Bounded (about 10 s
#: in total) so a genuinely stuck database still surfaces as an error.
_OPEN_ATTEMPTS = 20
_OPEN_BACKOFF_SECONDS = 0.05

#: Keys per ``IN (...)`` clause.  SQLite's default parameter limit is
#: 999 (32766 on newer builds); staying under the old floor keeps the
#: backend portable while still batching well.
_SELECT_CHUNK = 900

_CREATE_META = """
CREATE TABLE IF NOT EXISTS meta (
    key              TEXT PRIMARY KEY,
    schema_version   INTEGER NOT NULL,
    events_processed INTEGER NOT NULL,
    sim_seconds      REAL NOT NULL
) WITHOUT ROWID
"""

# An ordinary rowid table: the TEXT primary key becomes a slim key->rowid
# index while the heavy cell/metrics text appends to the rowid B-tree in
# insertion order, keeping writes sequential and the meta table lean.
_CREATE_PAYLOADS = """
CREATE TABLE IF NOT EXISTS payloads (
    key     TEXT PRIMARY KEY,
    cell    TEXT NOT NULL,
    metrics TEXT NOT NULL
)
"""

# The work-stealing queue: one row per cell, grouped into indivisible
# lease units by ``grp`` (a chain-group id — chains never straddle
# workers).  ``state`` walks pending -> leased -> done, with expired
# leases falling back to pending until ``attempts`` (lease grants)
# reaches the cap, after which the group is poisoned.  ``cell`` carries
# the full Cell payload JSON so any worker can reconstruct the work item
# from the database alone.
_CREATE_QUEUE = """
CREATE TABLE IF NOT EXISTS queue (
    key      TEXT PRIMARY KEY,
    grp      TEXT NOT NULL,
    cell     TEXT NOT NULL,
    state    TEXT NOT NULL DEFAULT 'pending',
    owner    TEXT,
    deadline REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    error    TEXT
)
"""

_CREATE_QUEUE_INDEX = (
    "CREATE INDEX IF NOT EXISTS queue_state_grp ON queue(state, grp)"
)


class SqliteBackend:
    """Key -> entry-payload storage in ``<cache_dir>/results.sqlite``.

    Safe for concurrent writer *processes* sharing one cache directory
    (WAL + busy-wait transactions); not required to be thread-safe
    within a process — the store front owns one backend and serializes
    access the way the executor already serializes ``put`` traffic.
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.path = self.cache_dir / DB_FILENAME
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None

    # -- connection management -------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The per-process connection, (re)opened lazily and after forks."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            if self._conn is not None and self._conn_pid == pid:
                self._conn.close()
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_SECONDS)
            try:
                self._prepare(conn)
            except BaseException:
                conn.close()
                raise
            self._conn = conn
            self._conn_pid = pid
        return self._conn

    @staticmethod
    def _prepare(conn: sqlite3.Connection) -> None:
        """Put a fresh connection's database in WAL mode with the result
        tables present, tolerating other processes doing the same."""
        for attempt in range(1, _OPEN_ATTEMPTS + 1):
            try:
                mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
                if mode.lower() != "wal":
                    conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                # The write lock is taken up front, where the busy timeout
                # applies, instead of by a lock upgrade inside the DDL.
                conn.execute("BEGIN IMMEDIATE")
                conn.execute(_CREATE_META)
                conn.execute(_CREATE_PAYLOADS)
                conn.commit()
                return
            except sqlite3.OperationalError as error:
                conn.rollback()
                if "locked" not in str(error) or attempt == _OPEN_ATTEMPTS:
                    raise
                time.sleep(_OPEN_BACKOFF_SECONDS * attempt)

    def close(self) -> None:
        """Release the held connection (it reopens lazily on next use)."""
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    # -- batch primitives ------------------------------------------------------

    def resolve_many(self, keys: Sequence[str]) -> Resolution:
        """Membership + :class:`EntryMeta` for ``keys``, metrics untouched.

        This is the warm-path workhorse: it selects the bookkeeping
        columns of ``meta`` only and never deserializes a metrics
        payload, so resolving a fully-warm 100k-cell grid costs far less
        than loading it.
        """
        resolution = Resolution()
        if not self.path.exists():
            return resolution
        conn = self._connection()
        hits = resolution.hits
        make = EntryMeta._make
        for chunk in _chunked(keys):
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                "SELECT key, schema_version, events_processed, sim_seconds "
                f"FROM meta WHERE key IN ({marks})",
                chunk,
            ).fetchall()
            for row in rows:
                hits[row[0]] = make(row[1:])
        return resolution

    def load_many(self, keys: Sequence[str]) -> LoadResult:
        """Full entry payloads for ``keys`` (absent keys are misses)."""
        result = LoadResult()
        if not self.path.exists():
            return result
        conn = self._connection()
        for chunk in _chunked(keys):
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                "SELECT m.key, m.schema_version, p.cell, m.events_processed, "
                "m.sim_seconds, p.metrics FROM meta m "
                "JOIN payloads p ON p.key = m.key "
                f"WHERE m.key IN ({marks})",
                chunk,
            )
            for key, schema, cell_text, events, sim_seconds, metrics_text in rows:
                try:
                    payload = {
                        "schema": schema,
                        "cell": json.loads(cell_text),
                        "events_processed": events,
                        "sim_seconds": sim_seconds,
                        "metrics": json.loads(metrics_text),
                    }
                except (json.JSONDecodeError, UnicodeDecodeError, TypeError):
                    result.corrupt.append(key)
                    continue
                result.payloads[key] = payload
        return result

    def put_many(self, items: Sequence[tuple[str, dict]]) -> None:
        """Persist ``(key, payload)`` pairs; later writes win on rewrite.

        One call is one durability batch: a single transaction.
        """
        if not items:
            return
        meta_rows = []
        payload_rows = []
        for key, payload in items:
            meta_rows.append(
                (
                    key,
                    int(payload["schema"]),
                    int(payload["events_processed"]),
                    float(payload["sim_seconds"]),
                )
            )
            payload_rows.append(
                (
                    key,
                    json.dumps(
                        payload["cell"], sort_keys=True, separators=(",", ":")
                    ),
                    json.dumps(payload["metrics"]),
                )
            )
        conn = self._connection()
        with conn:  # one transaction per batch, both tables or neither
            conn.executemany(
                "INSERT OR REPLACE INTO meta VALUES (?,?,?,?)", meta_rows
            )
            conn.executemany(
                "INSERT OR REPLACE INTO payloads VALUES (?,?,?)", payload_rows
            )

    def delete_many(self, keys: Sequence[str]) -> int:
        """Remove entries; returns how many existed.  Missing keys are fine."""
        if not self.path.exists():
            return 0
        conn = self._connection()
        removed = 0
        with conn:
            for chunk in _chunked(keys):
                marks = ",".join("?" * len(chunk))
                cursor = conn.execute(
                    f"DELETE FROM meta WHERE key IN ({marks})", chunk
                )
                removed += cursor.rowcount
                conn.execute(f"DELETE FROM payloads WHERE key IN ({marks})", chunk)
        return removed

    def keys(self) -> list[str]:
        """Every stored key (order unspecified)."""
        if not self.path.exists():
            return []
        return [row[0] for row in self._connection().execute("SELECT key FROM meta")]

    # -- the work-stealing queue table -----------------------------------------
    #
    # Physical layer of repro.exec.queue.CellQueue.  Semantics (group ids,
    # Cell encoding, lease policy) live in the front; this layer owns the
    # SQL and the transaction boundaries.

    def _queue_connection(self) -> sqlite3.Connection:
        """The shared connection, with the queue table ensured."""
        conn = self._connection()
        conn.execute(_CREATE_QUEUE)
        conn.execute(_CREATE_QUEUE_INDEX)
        conn.commit()
        return conn

    def queue_exists(self) -> bool:
        """Whether this database hosts a queue table (never creates one)."""
        if not self.path.exists():
            return False
        rows = self._connection().execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='queue'"
        ).fetchall()
        return bool(rows)

    def queue_enqueue(self, rows: Sequence[tuple[str, str, str]]) -> int:
        """Insert ``(key, grp, cell_json)`` rows as pending work.

        Idempotent: a key already pending/leased is left alone (its lease
        bookkeeping must survive a concurrent re-enqueue), while a
        ``done``/``poisoned`` row is revived to a fresh pending state —
        the store front decides warmness, so reaching this call means the
        result is genuinely wanted again.  Returns how many rows were
        inserted or revived.
        """
        if not rows:
            return 0
        conn = self._queue_connection()
        with conn:
            before = conn.total_changes
            conn.executemany(
                "INSERT INTO queue (key, grp, cell, state) VALUES (?,?,?,'pending') "
                "ON CONFLICT(key) DO UPDATE SET "
                "state='pending', owner=NULL, deadline=NULL, attempts=0, error=NULL "
                "WHERE queue.state IN ('done','poisoned')",
                rows,
            )
            return conn.total_changes - before

    def queue_claim(
        self,
        owner: str,
        *,
        now: float,
        lease_seconds: float,
        limit_groups: int,
        max_attempts: int,
    ) -> list[tuple[str, str, str, int]]:
        """Lease up to ``limit_groups`` claimable groups to ``owner``.

        One ``BEGIN IMMEDIATE`` transaction: expired leases whose groups
        exhausted their attempts are poisoned, then whole groups —
        pending or expired-leased — are marked leased with a fresh
        deadline and an incremented attempt count.  The write lock makes
        the select-then-update atomic against every other worker, so two
        claims can never return overlapping groups.  Returns the leased
        ``(key, grp, cell_json, attempts)`` rows.
        """
        conn = self._queue_connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "UPDATE queue SET state='poisoned', owner=NULL, deadline=NULL, "
                "error=COALESCE(error, 'lease expired after ' || attempts || ' attempts') "
                "WHERE state='leased' AND deadline < ? AND attempts >= ?",
                (now, max_attempts),
            )
            groups = [
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT grp FROM queue "
                    "WHERE state='pending' OR (state='leased' AND deadline < ?) "
                    "LIMIT ?",
                    (now, limit_groups),
                )
            ]
            if not groups:
                conn.commit()
                return []
            marks = ",".join("?" * len(groups))
            conn.execute(
                f"UPDATE queue SET state='leased', owner=?, deadline=?, "
                f"attempts=attempts+1 WHERE grp IN ({marks}) "
                "AND (state='pending' OR (state='leased' AND deadline < ?))",
                (owner, now + lease_seconds, *groups, now),
            )
            rows = conn.execute(
                f"SELECT key, grp, cell, attempts FROM queue "
                f"WHERE grp IN ({marks}) AND state='leased' AND owner=?",
                (*groups, owner),
            ).fetchall()
            conn.commit()
            return rows
        except BaseException:
            conn.rollback()
            raise

    def queue_complete(
        self,
        owner: str,
        group_ids: Sequence[str],
        items: Sequence[tuple[str, dict]],
    ) -> None:
        """Persist results and mark their lease groups done, atomically.

        The result rows go through the same meta/payloads statements as
        :meth:`put_many`, in **one** transaction with the queue update —
        a worker killed anywhere leaves either the whole group committed
        and done, or untouched and re-stealable after lease expiry.
        Groups are marked done regardless of current lease owner: a slow
        worker finishing a stolen group commits byte-identical results,
        so the late write is harmless and the work should not re-run.
        """
        meta_rows = []
        payload_rows = []
        for key, payload in items:
            meta_rows.append(
                (
                    key,
                    int(payload["schema"]),
                    int(payload["events_processed"]),
                    float(payload["sim_seconds"]),
                )
            )
            payload_rows.append(
                (
                    key,
                    json.dumps(
                        payload["cell"], sort_keys=True, separators=(",", ":")
                    ),
                    json.dumps(payload["metrics"]),
                )
            )
        conn = self._queue_connection()
        with conn:
            conn.executemany(
                "INSERT OR REPLACE INTO meta VALUES (?,?,?,?)", meta_rows
            )
            conn.executemany(
                "INSERT OR REPLACE INTO payloads VALUES (?,?,?)", payload_rows
            )
            marks = ",".join("?" * len(group_ids))
            conn.execute(
                f"UPDATE queue SET state='done', owner=?, deadline=NULL, "
                f"error=NULL WHERE grp IN ({marks})",
                (owner, *group_ids),
            )

    def queue_fail(self, group_id: str, error: str, *, poison: bool) -> None:
        """Record a group's simulation failure.

        ``poison=True`` retires the group loudly (deterministic errors,
        exhausted retries); otherwise the group returns to pending with
        its attempt count intact, to be retried by the next claim.
        """
        state = "poisoned" if poison else "pending"
        conn = self._queue_connection()
        with conn:
            conn.execute(
                "UPDATE queue SET state=?, owner=NULL, deadline=NULL, error=? "
                "WHERE grp=? AND state!='done'",
                (state, error, group_id),
            )

    def queue_renew(
        self,
        owner: str,
        group_ids: Sequence[str],
        *,
        now: float,
        lease_seconds: float,
    ) -> int:
        """Push the lease deadline out for ``owner``'s live groups.

        Only rows still leased *to this owner* are touched: a group that
        expired and was stolen belongs to the thief, and renewing it here
        would put two workers on the same unit.  Returns the number of
        cells whose deadline moved — a caller holding fewer renewals
        than cells knows part of its claim was stolen.
        """
        if not group_ids:
            return 0
        conn = self._queue_connection()
        with conn:
            marks = ",".join("?" * len(group_ids))
            cursor = conn.execute(
                f"UPDATE queue SET deadline=? WHERE grp IN ({marks}) "
                "AND state='leased' AND owner=?",
                (now + lease_seconds, *group_ids, owner),
            )
            return cursor.rowcount

    def queue_release(self, owner: str) -> int:
        """Return ``owner``'s live leases to pending (graceful shutdown)."""
        conn = self._queue_connection()
        with conn:
            cursor = conn.execute(
                "UPDATE queue SET state='pending', owner=NULL, deadline=NULL "
                "WHERE state='leased' AND owner=?",
                (owner,),
            )
            return cursor.rowcount

    def queue_counts(self) -> dict[str, tuple[int, int]]:
        """Per-state ``(cells, groups)`` counts (empty if no queue table)."""
        if not self.queue_exists():
            return {}
        return {
            row[0]: (row[1], row[2])
            for row in self._connection().execute(
                "SELECT state, COUNT(*), COUNT(DISTINCT grp) "
                "FROM queue GROUP BY state"
            )
        }

    def queue_retried_cells(self) -> int:
        """Cells whose group was leased more than once (stolen/retried)."""
        if not self.queue_exists():
            return 0
        [[n]] = self._connection().execute(
            "SELECT COUNT(*) FROM queue WHERE attempts > 1"
        )
        return n

    def queue_states(self, keys: Sequence[str]) -> dict[str, str]:
        """``key -> state`` for the given keys (absent keys omitted)."""
        if not self.queue_exists():
            return {}
        conn = self._connection()
        states: dict[str, str] = {}
        for chunk in _chunked(keys):
            marks = ",".join("?" * len(chunk))
            for key, state in conn.execute(
                f"SELECT key, state FROM queue WHERE key IN ({marks})", chunk
            ):
                states[key] = state
        return states

    def queue_poisoned(self) -> list[tuple[str, str, int, str | None]]:
        """Every poisoned ``(key, cell_json, attempts, error)`` row."""
        if not self.queue_exists():
            return []
        return self._connection().execute(
            "SELECT key, cell, attempts, error FROM queue WHERE state='poisoned'"
        ).fetchall()

    def queue_clear_done(self) -> int:
        """Delete done lease rows (their results live on in meta/payloads)."""
        if not self.queue_exists():
            return 0
        conn = self._connection()
        with conn:
            cursor = conn.execute("DELETE FROM queue WHERE state='done'")
            return cursor.rowcount

    def queue_requeue_poisoned(self) -> int:
        """Reset poisoned groups to fresh pending rows; returns cells reset."""
        if not self.queue_exists():
            return 0
        conn = self._connection()
        with conn:
            cursor = conn.execute(
                "UPDATE queue SET state='pending', owner=NULL, deadline=NULL, "
                "attempts=0, error=NULL WHERE state='poisoned'"
            )
            return cursor.rowcount

    # -- facts -----------------------------------------------------------------

    def count(self) -> int:
        """Number of stored entries."""
        if not self.path.exists():
            return 0
        [[n]] = self._connection().execute("SELECT COUNT(*) FROM meta")
        return n

    def size_bytes(self) -> int:
        """Total bytes the database and its WAL files occupy."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.stat(f"{self.path}{suffix}").st_size
            except OSError:
                pass
        return total


def _chunked(keys: Sequence[str]) -> list[Sequence[str]]:
    keys = list(keys)
    return [keys[i : i + _SELECT_CHUNK] for i in range(0, len(keys), _SELECT_CHUNK)]
