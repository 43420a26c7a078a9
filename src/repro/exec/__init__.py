"""Experiment execution: typed cells, a chain-forking executor, a
persistent result store, and a lease queue that fans cells out over
worker processes.

The public surface:

* :class:`Cell` — the frozen, hashable unit of simulation work
  (workload spec x scheduler kind x priority x options) with a stable
  content hash;
* :class:`CellExecutor` — answers a batch from the store and simulates
  the misses in-process, forking shared prefixes, with deterministic
  result order; :class:`DistExecutor` is the same contract over N
  crash-safe queue workers;
* :class:`ResultStore` — layered (memory + SQLite-on-disk) cache of
  per-cell :class:`~repro.metrics.collector.RunMetrics`, schema-versioned
  and corrupt-entry tolerant;
* :func:`run_cells` — the batch entry point the experiment harness uses:
  executes against the process-wide default executor;
* :class:`ExecConfig` + :func:`set_default_executor` — execution
  configuration as a frozen value, installed explicitly; this is what
  the CLI's ``--parallel`` / ``--cache-dir`` flags build.

Typical use::

    from repro.exec import Cell, run_cells
    from repro.experiments.config import WorkloadSpec

    cells = [Cell.make(WorkloadSpec(seed=s), "easy", "SJF") for s in (1, 2, 3)]
    for metrics in run_cells(cells):
        print(metrics.overall.mean_bounded_slowdown)
"""

from __future__ import annotations

from typing import Iterable

from repro.exec.cell import CACHE_SCHEMA_VERSION, Cell
from repro.exec.config import ExecConfig
from repro.exec.chains import ChainStats, chain_key, plan_chains, run_chain
from repro.exec.dist import DistExecutor, WorkerReport, run_worker
from repro.exec.executor import CellExecutor, ExecutionReport, simulate_cell
from repro.exec.queue import (
    CellQueue,
    ClaimedGroup,
    EnqueueReport,
    PoisonedCell,
    QueueStats,
)
from repro.exec.serialize import metrics_digest
from repro.exec.store import (
    DEFAULT_MEMORY_LIMIT,
    GcReport,
    ResultStore,
    StoredResult,
    StoreStats,
    migrate_store,
)
from repro.metrics.collector import RunMetrics

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "Cell",
    "CellExecutor",
    "CellQueue",
    "ChainStats",
    "ClaimedGroup",
    "DEFAULT_MEMORY_LIMIT",
    "DistExecutor",
    "EnqueueReport",
    "ExecutionReport",
    "GcReport",
    "PoisonedCell",
    "QueueStats",
    "ResultStore",
    "StoredResult",
    "StoreStats",
    "WorkerReport",
    "chain_key",
    "migrate_store",
    "plan_chains",
    "run_chain",
    "run_worker",
    "simulate_cell",
    "metrics_digest",
    "run_cells",
    "ExecConfig",
    "set_default_executor",
    "default_executor",
    "default_store",
]

_default_executor: CellExecutor | None = None


def default_executor() -> CellExecutor:
    """The process-wide executor :func:`run_cells` uses (lazily created).

    Starts out serial and memory-only; reshape it with
    :func:`set_default_executor`.
    """
    global _default_executor
    if _default_executor is None:
        _default_executor = CellExecutor()
    return _default_executor


def default_store() -> ResultStore:
    """The result store backing the default executor."""
    return default_executor().store


def set_default_executor(config: ExecConfig | CellExecutor | None) -> CellExecutor:
    """Install the process-wide default executor and return it.

    Accepts a frozen :class:`ExecConfig` (the normal case — the executor
    and its store are built from it), a ready :class:`CellExecutor`, or
    ``None`` to reset to the lazy serial default.  The previous default's
    in-memory results are discarded.
    """
    global _default_executor
    if config is None:
        _default_executor = None
        return default_executor()
    if isinstance(config, CellExecutor):
        _default_executor = config
    elif isinstance(config, ExecConfig):
        _default_executor = config.build_executor()
    else:
        raise TypeError(
            f"expected ExecConfig, CellExecutor or None, got {type(config).__name__}"
        )
    return _default_executor


def run_cells(
    cells: Iterable[Cell], *, executor: CellExecutor | None = None
) -> list[RunMetrics]:
    """Execute a batch of cells; returns their metrics in input order.

    This is the batch entry point experiments use.  Results come from
    the executor's store when already known; misses are simulated —
    over queue workers when the executor (default: the process-wide one,
    see :func:`set_default_executor`) is a :class:`DistExecutor`.
    """
    return (executor or default_executor()).execute(cells)
