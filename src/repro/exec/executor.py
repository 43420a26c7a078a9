"""The cell executor: answer a batch from the store, simulate the rest.

:class:`CellExecutor` takes a batch of :class:`~repro.exec.cell.Cell`
work items, answers what it can from its :class:`ResultStore` — the
entire batch's cache state settles in **one** bulk ``get_many`` query,
so the disk backend never sees a per-cell probe — and simulates the
rest in-process, one chain group at a time: cells that differ only by
horizon fork a shared simulation prefix (:mod:`repro.exec.chains`), and
each finished group is committed through ``put_many`` as one write
batch.  Guarantees:

* **deterministic results** — output order matches input order, and the
  simulation itself is seeded, so the queue-distributed subclass
  (:class:`~repro.exec.dist.DistExecutor`, what ``--parallel N`` builds)
  returns float-identical metrics to this serial path;
* **progress/timing reporting** — an :class:`ExecutionReport` (cells
  completed, cache hit rate, events/sec) is updated per completion and
  exposed both per-batch (``last_report``) and cumulatively
  (``session``).

Exceptions raised *by the simulation itself* (configuration errors,
invariant violations) are deterministic and re-raised, never retried.
Crash resilience lives in the queue path — lease expiry, steal, attempt
cap and poisoning (:mod:`repro.exec.queue`) — not here: this executor
has no worker processes to lose.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.exec.cell import Cell
from repro.exec.chains import ChainStats, run_chain_groups
from repro.exec.store import ResultStore, StoredResult
from repro.metrics.collector import RunMetrics

__all__ = ["ExecutionReport", "CellExecutor", "simulate_cell"]


def simulate_cell(cell: Cell) -> StoredResult:
    """Simulate one cell from scratch (no caching, no chain forking).

    The unit every execution path bottoms out in — singleton chain
    groups and chain fallbacks call it — and the differential reference
    the chain suites compare forked results against.  Workload
    construction is memoized per process through the runner's bounded
    workload cache.
    """
    from repro.experiments.runner import cached_table, make_scheduler
    from repro.sim.engine import simulate

    started = time.perf_counter()
    result = simulate(
        cached_table(cell.spec),
        make_scheduler(cell.kind, cell.priority, **cell.options_dict),
    )
    return StoredResult(
        metrics=result.metrics,
        events_processed=result.events_processed,
        sim_seconds=time.perf_counter() - started,
    )


@dataclass
class ExecutionReport:
    """Progress and timing facts for one batch (or a whole session)."""

    cells_total: int = 0
    completed: int = 0
    cache_hits: int = 0
    simulated: int = 0
    events_processed: int = 0
    sim_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    #: Wall-clock spent in the simulation phase only (dispatching and
    #: awaiting misses) — excludes cache resolution, so a mostly-cached
    #: batch does not dilute the throughput number below.
    sim_elapsed_seconds: float = 0.0
    #: Simulation chains executed via prefix forking (see exec/chains.py).
    chains: int = 0
    #: Cells answered from a forked chain rather than a from-scratch run.
    chained_cells: int = 0
    #: snapshot+resume branch points taken across all chains.
    chain_forks: int = 0
    #: Chains that fell back to independent simulation.
    chain_fallbacks: int = 0
    #: Damaged cache entries the store dropped while serving this batch.
    corrupt_dropped: int = 0
    #: Schema-stale cache entries dropped (clean turnover, not damage).
    stale_dropped: int = 0
    #: Whether the caller configured parallel execution for this batch.
    parallel_requested: bool = False
    #: Whether misses actually ran on spawned workers — False under the
    #: quiet inline fallbacks (no workers, a single chain group), which
    #: used to make benchmark provenance guesswork on low-CPU hosts.
    parallel_used: bool = False
    #: Human-readable dispatch decision ("" until the batch decides).
    parallel_reason: str = ""

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed cells answered from the store."""
        return self.cache_hits / self.completed if self.completed else 0.0

    @property
    def events_per_second(self) -> float:
        """Fresh simulation events per simulation-phase wall-clock second.

        Divides by :attr:`sim_elapsed_seconds`, not total elapsed time:
        cache hits cost wall-clock but produce no events, and counting
        their time here made throughput look slower the warmer the cache
        was.  0 when nothing was simulated.
        """
        if self.sim_elapsed_seconds <= 0:
            return 0.0
        return self.events_processed / self.sim_elapsed_seconds

    def absorb(self, other: "ExecutionReport") -> None:
        """Accumulate another report's counters into this one."""
        self.cells_total += other.cells_total
        self.completed += other.completed
        self.cache_hits += other.cache_hits
        self.simulated += other.simulated
        self.events_processed += other.events_processed
        self.sim_seconds += other.sim_seconds
        self.elapsed_seconds += other.elapsed_seconds
        self.sim_elapsed_seconds += other.sim_elapsed_seconds
        self.chains += other.chains
        self.chained_cells += other.chained_cells
        self.chain_forks += other.chain_forks
        self.chain_fallbacks += other.chain_fallbacks
        self.corrupt_dropped += other.corrupt_dropped
        self.stale_dropped += other.stale_dropped
        self.parallel_requested = self.parallel_requested or other.parallel_requested
        self.parallel_used = self.parallel_used or other.parallel_used
        if other.parallel_reason:
            self.parallel_reason = other.parallel_reason

    def render(self) -> str:
        """One-line human summary used by progress/summary printers."""
        line = (
            f"cells {self.completed}/{self.cells_total}"
            f" | {self.simulated} simulated"
            f" | {self.cache_hits} cached ({self.cache_hit_rate:.0%} hit rate)"
            f" | {_si(self.events_processed)} events"
            f" ({_si(self.events_per_second)}/s)"
            f" | {self.elapsed_seconds:.1f}s"
        )
        if self.chains:
            line += (
                f" | {self.chains} chains ({self.chained_cells} cells, "
                f"{self.chain_forks} forks)"
            )
        if self.corrupt_dropped or self.stale_dropped:
            line += (
                f" | cache dropped {self.corrupt_dropped} corrupt"
                f" + {self.stale_dropped} stale"
            )
        if self.parallel_reason:
            mode = "parallel" if self.parallel_used else "serial"
            line += f" | {mode} ({self.parallel_reason})"
        return line


def _si(value: float) -> str:
    """Compact SI-style number formatting (1234567 -> '1.2M')."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    return f"{value:.0f}" if value == int(value) else f"{value:.1f}"


@dataclass
class _Batch:
    """One ``execute`` call in flight: what both executors' preludes
    settle before any miss is simulated."""

    ordered: list[Cell]
    report: ExecutionReport
    resolved: dict[Cell, StoredResult]
    misses: list[Cell]
    started: float
    corrupt_before: int
    stale_before: int


class CellExecutor:
    """Executes batches of cells against a result store, in-process.

    Parameters:

    * ``store`` — the :class:`ResultStore` consulted before simulating
      and updated after; a private memory-only store if omitted.
    * ``progress`` — optional callable receiving the live
      :class:`ExecutionReport` after every completed cell.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        progress: Callable[[ExecutionReport], None] | None = None,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.progress = progress
        self.last_report = ExecutionReport()
        self.session = ExecutionReport()

    # -- public API -----------------------------------------------------------

    def execute(self, cells: Iterable[Cell]) -> list[RunMetrics]:
        """Run a batch of cells; returns metrics in input order.

        Duplicate cells are simulated once; cache hits cost no
        simulation.  The batch's :class:`ExecutionReport` is left on
        ``last_report`` and folded into ``session``.
        """
        batch = self._open_batch(cells)
        report = batch.report
        if batch.misses:
            sim_started = time.perf_counter()
            report.parallel_reason = "in-process"
            stats = ChainStats()
            # One store write batch per chain group: results persist as
            # the sweep streams in, and a killed run keeps everything up
            # to the last whole group.
            for cell, stored in run_chain_groups(
                batch.misses, stats, commit=self.store.put_many
            ):
                batch.resolved[cell] = stored
                self._note_simulated(report, stored, batch.started, sim_started)
            report.chains = stats.chains
            report.chained_cells = stats.chained_cells
            report.chain_forks = stats.forks
            report.chain_fallbacks = stats.fallbacks
        return self._close_batch(batch)

    def close(self) -> None:
        """Release the store's database handle (it reopens on next use)."""
        if self.store.backend is not None:
            self.store.backend.close()

    # -- shared with DistExecutor ----------------------------------------------

    def _open_batch(self, cells: Iterable[Cell]) -> _Batch:
        """Start a batch's report and settle its cache state.

        The whole batch resolves in one store query — the disk backend
        sees O(1) bulk calls, never a per-cell probe.
        """
        ordered = list(cells)
        started = time.perf_counter()
        report = ExecutionReport(cells_total=len(ordered))
        self.last_report = report
        corrupt_before = self.store.stats.corrupt_dropped
        stale_before = self.store.stats.stale_dropped
        unique = list(dict.fromkeys(ordered))
        resolved = self.store.get_many(unique)
        misses = [cell for cell in unique if cell not in resolved]
        report.cache_hits = len(resolved)
        report.completed = len(resolved)
        report.elapsed_seconds = time.perf_counter() - started
        if report.completed:
            self._emit(report)
        if not misses:
            report.parallel_reason = "fully cached"
        return _Batch(
            ordered=ordered,
            report=report,
            resolved=resolved,
            misses=misses,
            started=started,
            corrupt_before=corrupt_before,
            stale_before=stale_before,
        )

    def _close_batch(self, batch: _Batch) -> list[RunMetrics]:
        """Finish the report, fold it into ``session``, order the answers."""
        report = batch.report
        report.corrupt_dropped = self.store.stats.corrupt_dropped - batch.corrupt_before
        report.stale_dropped = self.store.stats.stale_dropped - batch.stale_before
        report.elapsed_seconds = time.perf_counter() - batch.started
        self.session.absorb(report)
        return [batch.resolved[cell].metrics for cell in batch.ordered]

    def _note_simulated(
        self,
        report: ExecutionReport,
        stored: StoredResult,
        started: float,
        sim_started: float,
    ) -> None:
        report.simulated += 1
        report.completed += 1
        report.events_processed += stored.events_processed
        report.sim_seconds += stored.sim_seconds
        report.elapsed_seconds = time.perf_counter() - started
        report.sim_elapsed_seconds = time.perf_counter() - sim_started
        self._emit(report)

    def _emit(self, report: ExecutionReport) -> None:
        if self.progress is not None:
            self.progress(report)
