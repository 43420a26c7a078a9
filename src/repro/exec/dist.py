"""Distributed sweep execution: a coordinator and N queue-draining workers.

Two halves, both thin over :class:`~repro.exec.queue.CellQueue`:

* :func:`run_worker` — the worker loop behind ``repro worker``: claim a
  batch of chain-group leases, simulate them through the existing
  :func:`~repro.exec.chains.simulate_chunk_chained` path (the runner's
  per-process workload cache carries across leases — a worker builds
  each distinct base workload once and forks chains within a group
  exactly as the in-process executor does), and commit every group's
  results in the same transaction that marks its lease done.  Run any
  number of these, on one host or many sharing a filesystem.
* :class:`DistExecutor` — a drop-in :class:`CellExecutor`, and the only
  fan-out there is (``--parallel N`` and ``ExecConfig(parallel=N)``
  build one): resolves warm cells against the store in one ``get_many``,
  enqueues only the misses, spawns local worker processes (spawn
  context — workers must never inherit the coordinator's SQLite
  handles) when there is more than one chain group to share out, waits
  for the queue to drain — draining inline itself whenever no local
  worker is alive — and reads back from the shared database only the
  results other workers committed: those it simulated inline it already
  holds.  Because it *is* a ``CellExecutor``, it installs with
  :func:`repro.exec.set_default_executor` and everything built on
  :func:`repro.exec.run_cells` — experiments, the CLI — distributes
  without knowing it.

Failure policy: a :class:`~repro.errors.ReproError` from the simulation
is deterministic — retrying cannot help — so the group is poisoned
immediately; any other exception returns the group to pending until its
attempt count hits the cap.  A worker that dies without a trace simply
stops renewing its lease, and the next claimant steals the group after
the deadline.  The coordinator surfaces poisoned cells as one loud
:class:`~repro.errors.ReproError` naming them.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.exec.backends import DB_FILENAME
from repro.exec.cell import Cell
from repro.exec.chains import simulate_chunk_chained
from repro.exec.executor import CellExecutor, ExecutionReport, _Batch
from repro.exec.queue import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    CellQueue,
)
from repro.exec.store import ResultStore, StoredResult
from repro.metrics.collector import RunMetrics

__all__ = ["WorkerReport", "run_worker", "worker_process_main", "DistExecutor"]

#: Groups per claim batch: enough to amortize the claim transaction
#: without hoarding work a crashed worker would strand until expiry.
DEFAULT_BATCH_GROUPS = 4


def _default_owner() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerReport:
    """What one :func:`run_worker` loop accomplished."""

    owner: str
    groups_completed: int = 0
    groups_failed: int = 0
    cells_simulated: int = 0
    events_processed: int = 0
    sim_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    chains: int = 0
    chained_cells: int = 0
    chain_forks: int = 0
    #: Claim calls that found nothing claimable (drain checks + waits on
    #: other workers' live leases).
    idle_polls: int = 0
    #: Cells whose lease deadline this worker pushed out between chain
    #: groups of a multi-group claim batch.
    leases_renewed: int = 0

    def render(self) -> str:
        line = (
            f"worker {self.owner}: {self.cells_simulated} cells in "
            f"{self.groups_completed} groups"
            f" | {self.events_processed} events"
            f" | {self.elapsed_seconds:.1f}s"
        )
        if self.chains:
            line += f" | {self.chains} chains ({self.chain_forks} forks)"
        if self.leases_renewed:
            line += f" | {self.leases_renewed} leases renewed"
        if self.groups_failed:
            line += f" | {self.groups_failed} groups failed"
        return line


def run_worker(
    queue_dir: str | os.PathLike,
    *,
    owner: str | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    batch_groups: int = DEFAULT_BATCH_GROUPS,
    poll_seconds: float = 0.5,
    idle_seconds: float = 0.0,
    progress: Callable[[WorkerReport], None] | None = None,
    commit: Callable[[list[tuple[Cell, StoredResult]]], None] | None = None,
) -> WorkerReport:
    """Drain the queue at ``queue_dir``: claim, simulate, commit, repeat.

    ``commit``, when given, receives each group's ``[(cell, stored),
    ...]`` once the queue has committed it, as
    :func:`~repro.exec.chains.run_chain_groups` hands its groups on: the
    inline drain keeps what it simulated instead of reading it back.
    Exits when the queue holds no open work (``idle_seconds`` lets a
    worker linger that long for new work first — useful for workers
    started before the sweep is enqueued).  While other workers hold
    live leases it waits rather than exiting, so it is there to steal
    should they die.  Claimed-but-unfinished leases are released on any
    exit path; a SIGKILL skips that and costs only the lease deadline.
    """
    queue = CellQueue(
        queue_dir, lease_seconds=lease_seconds, max_attempts=max_attempts
    )
    report = WorkerReport(owner=owner or _default_owner())
    started = time.perf_counter()
    idle_since: float | None = None
    try:
        while True:
            claimed = queue.claim(report.owner, limit_groups=batch_groups)
            if claimed:
                idle_since = None
                for index, group in enumerate(claimed):
                    _run_group(queue, group, report, commit)
                    # One group can outlive the whole batch's lease (a
                    # deep-queue condition simulates orders of magnitude
                    # slower than the median cell), so re-arm the
                    # deadline on the groups still waiting their turn
                    # before starting the next one.  Renewal skips
                    # anything already stolen — that work now belongs
                    # to the thief and re-simulating it here would race
                    # the commit.
                    remaining = [g.group_id for g in claimed[index + 1 :]]
                    if remaining:
                        report.leases_renewed += queue.renew(
                            report.owner, remaining
                        )
                    report.elapsed_seconds = time.perf_counter() - started
                    if progress is not None:
                        progress(report)
                continue
            report.idle_polls += 1
            if queue.stats().open_cells == 0:
                now = time.perf_counter()
                if idle_since is None:
                    idle_since = now
                if now - idle_since >= idle_seconds:
                    break
            # Open cells remain but nothing is claimable: other workers
            # hold live leases.  Wait — either they finish, or their
            # leases expire and the next claim steals the work.
            time.sleep(poll_seconds)
    finally:
        queue.release(report.owner)
        report.elapsed_seconds = time.perf_counter() - started
        queue.close()
    return report


def _run_group(queue: CellQueue, group, report: WorkerReport, commit) -> None:
    """Simulate one claimed group and commit or fail it."""
    cells = list(group.cells)
    try:
        storeds, stats = simulate_chunk_chained(cells)
    except Exception as exc:  # noqa: BLE001 — failure policy needs the lot
        poison = isinstance(exc, ReproError) or group.attempts >= queue.max_attempts
        queue.fail(group.group_id, f"{type(exc).__name__}: {exc}", poison=poison)
        report.groups_failed += 1
        return
    pairs = list(zip(cells, storeds))
    queue.complete(report.owner, [group.group_id], pairs)
    if commit is not None:
        commit(pairs)
    report.groups_completed += 1
    report.cells_simulated += len(cells)
    report.events_processed += sum(s.events_processed for s in storeds)
    report.sim_seconds += sum(s.sim_seconds for s in storeds)
    report.chains += stats.chains
    report.chained_cells += stats.chained_cells
    report.chain_forks += stats.forks


def worker_process_main(
    queue_dir: str,
    owner: str | None,
    lease_seconds: float,
    max_attempts: int,
    batch_groups: int,
    poll_seconds: float,
) -> None:
    """Spawn-safe process target wrapping :func:`run_worker`."""
    run_worker(
        queue_dir,
        owner=owner,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        batch_groups=batch_groups,
        poll_seconds=poll_seconds,
    )


class DistExecutor(CellExecutor):
    """A :class:`CellExecutor` that runs its misses through the queue.

    Up to ``workers`` local worker processes are spawned per batch —
    never more than there are chain groups to lease, and none for a
    single group or ``workers=0``: the coordinator then drains inline
    (external ``repro worker`` processes pointed at the same directory
    join in either way).  The store is the queue directory's SQLite
    database, so workers' commits are immediately visible to the
    coordinator and to the next sweep.  ``queue_dir=None`` runs over a
    temporary directory the executor owns and :meth:`close` removes —
    fan-out without a persistent cache.
    """

    def __init__(
        self,
        queue_dir: str | os.PathLike | None = None,
        *,
        workers: int = 0,
        store: ResultStore | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        batch_groups: int = DEFAULT_BATCH_GROUPS,
        poll_seconds: float = 0.2,
        progress: Callable[[ExecutionReport], None] | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self._owned_dir: tempfile.TemporaryDirectory | None = None
        if queue_dir is None:
            self._owned_dir = tempfile.TemporaryDirectory(prefix="repro-queue-")
            queue_dir = self._owned_dir.name
        queue_dir = Path(queue_dir)
        if store is None:
            store = ResultStore(queue_dir)
        elif store.backend is None or store.backend.path != queue_dir / DB_FILENAME:
            raise ConfigurationError(
                "DistExecutor needs a disk-backed store on the queue "
                "directory itself — workers commit results there"
            )
        super().__init__(store=store, progress=progress)
        self.queue = CellQueue(
            queue_dir, lease_seconds=lease_seconds, max_attempts=max_attempts
        )
        self.workers = workers
        self.batch_groups = batch_groups
        self.poll_seconds = poll_seconds

    def execute(self, cells: Iterable[Cell]) -> list[RunMetrics]:
        batch = self._open_batch(cells)
        report = batch.report
        report.parallel_requested = True
        misses = batch.misses
        if misses:
            sim_started = time.perf_counter()
            groups = self.queue.enqueue(misses).groups
            # One group cannot be shared out: spawning for it would buy
            # process start-up and nothing else.
            spawn = min(self.workers, groups) if groups > 1 else 0
            report.parallel_used = spawn > 0
            if spawn:
                report.parallel_reason = f"dist queue, {spawn} local workers"
            elif self.workers:
                report.parallel_reason = (
                    f"dist queue, single chain group drained inline, "
                    f"{self.workers} workers idle"
                )
            else:
                report.parallel_reason = "dist queue, inline drain"
            drained: dict[Cell, StoredResult] = {}
            procs = self._spawn_workers(spawn)
            try:
                self._await_drain(batch, procs, sim_started, drained.update)
            finally:
                self._reap_workers(procs)
            self._raise_poisoned(misses)
            report.completed = report.cache_hits
            # What the inline drain simulated is in hand (and on disk, by
            # its own commit); only other workers' cells are read back.
            fetched = {cell: drained[cell] for cell in misses if cell in drained}
            self.store.remember(fetched.items())
            others = [cell for cell in misses if cell not in fetched]
            fetched.update(self.store.get_many(others))
            lost = [cell for cell in others if cell not in fetched]
            if lost:
                raise ReproError(
                    f"distributed sweep finished but {len(lost)} result(s) "
                    f"did not read back (first: {lost[0].label()}); the "
                    "queue marked them done — store corruption?"
                )
            for cell in misses:
                stored = fetched[cell]
                batch.resolved[cell] = stored
                self._note_simulated(report, stored, batch.started, sim_started)
            report.sim_elapsed_seconds = time.perf_counter() - sim_started
        return self._close_batch(batch)

    def close(self) -> None:
        """Release the database handles and remove an owned directory."""
        super().close()
        self.queue.close()
        if self._owned_dir is not None:
            self._owned_dir.cleanup()

    # -- internals -------------------------------------------------------------

    def _spawn_workers(self, count: int) -> list:
        """Start ``count`` local workers (spawn context: no inherited
        SQLite handles, identical semantics on every platform)."""
        ctx = multiprocessing.get_context("spawn")
        procs = []
        for index in range(count):
            proc = ctx.Process(
                target=worker_process_main,
                args=(
                    str(self.queue.queue_dir),
                    f"{_default_owner()}:w{index}",
                    self.queue.lease_seconds,
                    self.queue.max_attempts,
                    self.batch_groups,
                    self.poll_seconds,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        return procs

    def _reap_workers(self, procs: Sequence) -> None:
        """Collect workers (they exit at drain); escalate if one hangs."""
        for proc in procs:
            proc.join(timeout=max(30.0, 2 * self.queue.lease_seconds))
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()

    def _await_drain(
        self, batch: _Batch, procs: Sequence, sim_started: float, commit
    ) -> None:
        """Poll the queue until every miss is done or poisoned.

        Whenever open cells remain and no local worker is alive — none
        was spawned, or the whole fleet died — the coordinator is the
        local worker: it drains inline (external workers steal from the
        same queue concurrently), waiting out and stealing any lease a
        dead worker left behind.  Each group it commits goes to
        ``commit``.
        """
        misses, report = batch.misses, batch.report
        while True:
            states = self.queue.states_for(misses)
            finished = sum(
                1 for state in states.values() if state in ("done", "poisoned")
            )
            done = sum(1 for state in states.values() if state == "done")
            report.completed = report.cache_hits + done
            report.elapsed_seconds = time.perf_counter() - batch.started
            report.sim_elapsed_seconds = time.perf_counter() - sim_started
            self._emit(report)
            if finished >= len(misses):
                return
            if not any(proc.is_alive() for proc in procs):
                if procs:
                    report.parallel_reason += ", all exited early: drained inline"
                inline = run_worker(
                    self.queue.queue_dir,
                    lease_seconds=self.queue.lease_seconds,
                    max_attempts=self.queue.max_attempts,
                    batch_groups=self.batch_groups,
                    poll_seconds=self.poll_seconds,
                    commit=commit,
                )
                report.chains += inline.chains
                report.chained_cells += inline.chained_cells
                report.chain_forks += inline.chain_forks
                continue
            time.sleep(self.poll_seconds)

    def _raise_poisoned(self, misses: Sequence[Cell]) -> None:
        states = self.queue.states_for(misses)
        bad = [
            cell
            for cell in misses
            if states.get(cell.content_hash()) == "poisoned"
        ]
        if not bad:
            return
        errors = {p.key: p.error for p in self.queue.poisoned()}
        shown = ", ".join(
            f"{cell.label()} [{errors.get(cell.content_hash()) or 'unknown error'}]"
            for cell in bad[:5]
        )
        more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
        raise ReproError(
            f"distributed sweep poisoned {len(bad)} cell(s): {shown}{more}; "
            "inspect with 'repro queue stats', retry with 'repro queue requeue'"
        )
