"""Lease-based work-stealing queue for distributed sweep execution.

:class:`CellQueue` turns a sweep's cache directory into a shared work
queue: one SQLite ``queue`` table (hosted by the store's
:class:`~repro.exec.backends.sqlite.SqliteBackend`, beside the result
tables) where each row is a cell and rows are grouped into **indivisible
lease units** by chain group — cells differing only by horizon fork a
shared simulation prefix (:mod:`repro.exec.chains`), so splitting a
chain across workers would re-simulate that prefix on every side.
Any number of worker processes — one host or many sharing a filesystem —
drain the queue by claiming leases, simulating, and committing results
into the very same database the :class:`~repro.exec.store.ResultStore`
reads.

The lease state machine (DESIGN.md section 10)::

    pending ──claim──▶ leased ──complete──▶ done
       ▲                 │ deadline passes
       │   attempts < cap│
       └─────────────────┤
                         │ attempts >= cap, or deterministic error
                         ▼
                     poisoned

* **claim** — one ``BEGIN IMMEDIATE`` transaction leases whole groups
  (pending, or leased-but-expired: the *steal*) to an owner and bumps
  each row's attempt count; the write lock makes concurrent claims
  disjoint by construction.
* **complete** — result rows and the ``done`` flip commit in one
  transaction, so a worker killed at any instant loses at most its
  in-flight group, which the next claimant steals after the deadline.
* **poisoned** — a group that keeps dying (attempt cap) or fails
  deterministically is retired loudly instead of looping forever;
  :meth:`CellQueue.poisoned` surfaces the cells and errors, and
  :meth:`CellQueue.requeue_poisoned` gives them a fresh start.

Enqueueing is idempotent and *revival-aware*: re-enqueueing a grid
leaves in-flight rows untouched and revives ``done``/``poisoned`` rows
to pending — the caller (see :class:`~repro.exec.dist.DistExecutor`)
resolves warm cells against the store first and only enqueues genuine
misses, which is what makes a re-submitted sweep resume rather than
recompute.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.exec.backends.sqlite import SqliteBackend
from repro.exec.cell import Cell
from repro.exec.chains import plan_chains
from repro.exec.store import StoredResult, stored_payload

__all__ = [
    "CellQueue",
    "ClaimedGroup",
    "EnqueueReport",
    "PoisonedCell",
    "QueueStats",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "group_id",
]

#: Default lease duration.  Generous against the ~milliseconds a typical
#: cell simulates in, so healthy workers never lose a live lease, while
#: a killed worker's groups come back within a couple of minutes.
DEFAULT_LEASE_SECONDS = 120.0

#: Default cap on lease grants per group before it is poisoned.
DEFAULT_MAX_ATTEMPTS = 3


def group_id(cells: Sequence[Cell]) -> str:
    """Stable id of a chain group: sha256 over its sorted member keys.

    Deterministic across processes and enqueue calls — the same grid
    always plans the same groups, so re-enqueueing maps onto existing
    rows instead of inventing new units.
    """
    digest = hashlib.sha256()
    for key in sorted(cell.content_hash() for cell in cells):
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _cell_to_json(cell: Cell) -> str:
    return json.dumps(cell.to_payload(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ClaimedGroup:
    """One leased chain group: simulate all of it, then complete it."""

    group_id: str
    #: Horizon-ascending, exactly the order ``simulate_chunk_chained``
    #: wants (chains fork shortest-first).
    cells: tuple[Cell, ...]
    #: Lease grants this group has had, this one included — 1 on the
    #: first claim, more after steals/retries.
    attempts: int


@dataclass(frozen=True)
class PoisonedCell:
    """A retired cell, surfaced loudly instead of retried forever."""

    key: str
    cell: Cell | None  # None when the stored payload no longer decodes
    attempts: int
    error: str | None

    def label(self) -> str:
        return self.cell.label() if self.cell is not None else self.key[:16]


@dataclass(frozen=True)
class EnqueueReport:
    """What one :meth:`CellQueue.enqueue` call did."""

    cells: int  # distinct cells offered
    groups: int  # chain groups they plan into
    enqueued: int  # rows inserted or revived
    already_queued: int  # rows left alone (pending or leased in-flight)


@dataclass(frozen=True)
class QueueStats:
    """Queue population by lease state, in cells and groups."""

    pending_cells: int = 0
    pending_groups: int = 0
    leased_cells: int = 0
    leased_groups: int = 0
    done_cells: int = 0
    done_groups: int = 0
    poisoned_cells: int = 0
    poisoned_groups: int = 0
    #: Cells whose group needed more than one lease grant (steals and
    #: post-crash retries both land here).
    retried_cells: int = 0

    @property
    def total_cells(self) -> int:
        return (
            self.pending_cells
            + self.leased_cells
            + self.done_cells
            + self.poisoned_cells
        )

    @property
    def open_cells(self) -> int:
        """Cells still owed a result (pending or leased)."""
        return self.pending_cells + self.leased_cells

    def render(self) -> str:
        line = (
            f"queue: {self.pending_cells} pending"
            f" | {self.leased_cells} leased"
            f" | {self.done_cells} done"
            f" | {self.poisoned_cells} poisoned"
            f" (cells; {self.total_cells} total)"
        )
        if self.retried_cells:
            line += f" | {self.retried_cells} retried"
        return line


class CellQueue:
    """The typed front of the queue table in ``<queue_dir>/results.sqlite``.

    Owns the semantic layer — group planning, Cell (de)serialization,
    lease policy — and delegates all SQL to the
    :class:`~repro.exec.backends.sqlite.SqliteBackend` it wraps.  Many
    processes may hold a ``CellQueue`` on the same directory; SQLite's
    WAL mode and the backend's ``BEGIN IMMEDIATE`` claims do the
    coordination.
    """

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.queue_dir = Path(queue_dir)
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self._backend = SqliteBackend(self.queue_dir)

    @property
    def path(self) -> Path:
        """The SQLite database the queue (and its results) live in."""
        return self._backend.path

    def close(self) -> None:
        self._backend.close()

    # -- producing work --------------------------------------------------------

    def enqueue(self, cells: Sequence[Cell]) -> EnqueueReport:
        """Queue a batch of cells as chain-group lease units.

        Callers pass genuine misses only (resolve warm cells against the
        store first); duplicates are collapsed.  In-flight rows are left
        untouched, finished/poisoned rows are revived — see the module
        docstring for why that is the resume story.
        """
        groups = plan_chains(list(dict.fromkeys(cells)))
        rows: list[tuple[str, str, str]] = []
        for group in groups:
            gid = group_id(group)
            rows.extend(
                (cell.content_hash(), gid, _cell_to_json(cell)) for cell in group
            )
        changed = self._backend.queue_enqueue(rows)
        return EnqueueReport(
            cells=len(rows),
            groups=len(groups),
            enqueued=changed,
            already_queued=len(rows) - changed,
        )

    # -- consuming work --------------------------------------------------------

    def claim(
        self,
        owner: str,
        *,
        limit_groups: int = 1,
        now: float | None = None,
    ) -> list[ClaimedGroup]:
        """Lease up to ``limit_groups`` groups to ``owner``; [] when none.

        Pending groups and expired leases (the steal path) are equally
        claimable; expired groups at the attempt cap are poisoned
        instead of returned.  ``now`` is a test seam — production
        callers let it default to wall-clock time.
        """
        rows = self._backend.queue_claim(
            owner,
            now=time.time() if now is None else now,
            lease_seconds=self.lease_seconds,
            limit_groups=limit_groups,
            max_attempts=self.max_attempts,
        )
        by_group: dict[str, list[tuple[Cell, int]]] = {}
        broken: dict[str, str] = {}
        for key, gid, cell_text, attempts in rows:
            if gid in broken:
                continue
            try:
                cell = Cell.from_payload(json.loads(cell_text))
                if cell.content_hash() != key:
                    raise ValueError("queued cell does not match its key")
            except Exception as exc:
                # A row that no longer decodes can never simulate; retire
                # the whole group loudly rather than bouncing the lease.
                broken[gid] = f"undecodable queue row: {exc}"
                continue
            by_group.setdefault(gid, []).append((cell, attempts))
        for gid, error in broken.items():
            by_group.pop(gid, None)
            self._backend.queue_fail(gid, error, poison=True)
        claimed = []
        for gid, members in by_group.items():
            members.sort(key=lambda pair: pair[0].spec.n_jobs)
            claimed.append(
                ClaimedGroup(
                    group_id=gid,
                    cells=tuple(cell for cell, _ in members),
                    attempts=max(attempts for _, attempts in members),
                )
            )
        return claimed

    def complete(
        self,
        owner: str,
        group_ids: Sequence[str],
        pairs: Sequence[tuple[Cell, StoredResult]],
    ) -> None:
        """Commit a batch of results and mark their groups done — one
        transaction, the crash-safety hinge of the whole design."""
        if not group_ids:
            return
        items = [
            (cell.content_hash(), stored_payload(cell, stored))
            for cell, stored in pairs
        ]
        self._backend.queue_complete(owner, list(group_ids), items)

    def renew(
        self,
        owner: str,
        group_ids: Sequence[str],
        *,
        now: float | None = None,
    ) -> int:
        """Extend ``owner``'s live leases on ``group_ids`` by a fresh
        lease period; returns the number of cells renewed.

        Workers call this between chain groups of a multi-group claim:
        a batch sized for milliseconds-per-cell can still outlive its
        lease when one group lands on a deep-queue condition, and
        without renewal the *unstarted* groups of the batch expire and
        get re-simulated by a thief.  Renewal only touches rows still
        leased to ``owner`` — anything already stolen stays with the
        thief (fewer renewals than cells is the caller's stolen-work
        signal).  ``now`` is a test seam, as in :meth:`claim`.
        """
        return self._backend.queue_renew(
            owner,
            list(group_ids),
            now=time.time() if now is None else now,
            lease_seconds=self.lease_seconds,
        )

    def fail(self, gid: str, error: str, *, poison: bool) -> None:
        """Report a group's simulation failure (poison or retry)."""
        self._backend.queue_fail(gid, error, poison=poison)

    def release(self, owner: str) -> int:
        """Graceful shutdown: hand ``owner``'s live leases straight back."""
        return self._backend.queue_release(owner)

    # -- observing -------------------------------------------------------------

    def stats(self) -> QueueStats:
        counts = self._backend.queue_counts()

        def take(state: str) -> tuple[int, int]:
            return counts.get(state, (0, 0))

        pending, leased = take("pending"), take("leased")
        done, poisoned = take("done"), take("poisoned")
        return QueueStats(
            pending_cells=pending[0],
            pending_groups=pending[1],
            leased_cells=leased[0],
            leased_groups=leased[1],
            done_cells=done[0],
            done_groups=done[1],
            poisoned_cells=poisoned[0],
            poisoned_groups=poisoned[1],
            retried_cells=self._backend.queue_retried_cells(),
        )

    def states_for(self, cells: Sequence[Cell]) -> dict[str, str]:
        """``content_hash -> state`` for the given cells (absent = never
        queued)."""
        return self._backend.queue_states([cell.content_hash() for cell in cells])

    def poisoned(self) -> list[PoisonedCell]:
        """Every poisoned cell, decoded where possible, with its error."""
        out = []
        for key, cell_text, attempts, error in self._backend.queue_poisoned():
            try:
                cell = Cell.from_payload(json.loads(cell_text))
            except Exception:
                cell = None
            out.append(
                PoisonedCell(key=key, cell=cell, attempts=attempts, error=error)
            )
        return out

    # -- maintenance -----------------------------------------------------------

    def clear_done(self) -> int:
        """Drop finished lease rows (results stay in the store tables)."""
        return self._backend.queue_clear_done()

    def requeue_poisoned(self) -> int:
        """Give every poisoned group a fresh pending start; returns cells."""
        return self._backend.queue_requeue_poisoned()
