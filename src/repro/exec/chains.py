"""Simulation chains: fork shared prefixes across horizon sweeps.

A characterization grid usually contains *chains* of cells that differ
only in ``spec.n_jobs`` — the same trace, seed, load scale, estimate
regime, scheduler, priority, and options at several truncation horizons
(the standard convergence check).  Because the workload generator draws
its random sequence per job, a shorter horizon's workload is an exact
prefix of the longer one's, and because an event-driven schedule is
causal (decisions at time *t* depend only on arrivals at or before *t*),
the short simulation IS a prefix of the long one.  Re-running it from
scratch is pure waste.

:func:`run_chain` exploits this with the engine's checkpoint/fork API
(DESIGN.md section 9): one *trunk* simulator runs the longest workload,
pausing at each shorter horizon's boundary; each pause is
:meth:`~repro.sim.engine.Simulator.snapshot`-ed and
:meth:`~repro.sim.engine.Simulator.resume`-d on the shorter workload,
which only has to drain the already-started tail.  A 750/1125/1500
horizon triple thus costs roughly one 1500-job simulation plus two tail
drains instead of 3375 job-lifetimes.

Safety over speed: the prefix property is *verified at runtime* (exact
job-tuple comparison against the full workload), and any mismatch — or a
:class:`~repro.errors.SimulationError` from the checkpoint machinery,
e.g. advance-reservation blockers colliding with a resumed branch — falls
back to independent per-cell simulation, counted in
:class:`ChainStats.fallbacks`.  Chained results are therefore always
byte-identical to unchained ones (pinned by
``tests/properties/test_prop_chain_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError
from repro.exec.cell import Cell
from repro.exec.store import StoredResult

__all__ = [
    "ChainStats",
    "chain_key",
    "plan_chains",
    "run_chain",
    "run_chain_groups",
    "simulate_chunk_chained",
]


@dataclass
class ChainStats:
    """Counters describing how chain execution went for a batch."""

    #: Multi-cell chains executed via fork (a singleton group counts 0).
    chains: int = 0
    #: Cells answered from a forked chain (includes each chain's trunk).
    chained_cells: int = 0
    #: snapshot+resume branch points taken.
    forks: int = 0
    #: Chains that hit a prefix mismatch or a checkpoint SimulationError
    #: and re-ran their cells independently.
    fallbacks: int = 0

    def absorb(self, other: "ChainStats") -> None:
        self.chains += other.chains
        self.chained_cells += other.chained_cells
        self.forks += other.forks
        self.fallbacks += other.fallbacks


class _ChainInfeasible(Exception):
    """Internal: the chain's workloads are not exact prefixes."""


def chain_key(cell: Cell) -> tuple:
    """Grouping key: everything that identifies a cell except its horizon."""
    spec = cell.spec
    return (
        spec.trace,
        spec.seed,
        spec.load_scale,
        spec.estimate,
        cell.kind,
        cell.priority,
        cell.options,
    )


def plan_chains(cells: Sequence[Cell]) -> list[list[Cell]]:
    """Group cells into chains (horizon-ascending), preserving first-seen order.

    Input cells must already be deduplicated (the executor dedups before
    planning).  Cells with no chain partner come back as singleton groups,
    so the union of the groups is exactly the input set.
    """
    groups: dict[tuple, list[Cell]] = {}
    for cell in cells:
        groups.setdefault(chain_key(cell), []).append(cell)
    return [
        sorted(group, key=lambda cell: cell.spec.n_jobs)
        for group in groups.values()
    ]


def _simulate_independent(cell: Cell) -> StoredResult:
    from repro.exec.executor import simulate_cell

    return simulate_cell(cell)


def _run_chain_forked(group: Sequence[Cell]) -> tuple[list[StoredResult], int]:
    """Execute a horizon-ascending chain with one trunk + per-branch forks.

    Returns the stored results in the group's order plus the fork count.
    Raises :class:`_ChainInfeasible` when the workloads are not exact
    prefixes of the longest one (the caller falls back to independent
    simulation); :class:`SimulationError` from the checkpoint machinery
    propagates for the same treatment.
    """
    import numpy as np

    from repro.experiments.runner import cached_table, make_scheduler
    from repro.sim.engine import Simulator

    full_cell = group[-1]
    tables = [cached_table(cell.spec) for cell in group]
    full = tables[-1]
    for cell, table in zip(group[:-1], tables[:-1]):
        n = len(table)
        # Columnar prefix verification: every column equal to the full
        # table's first n rows — value-identical to the job-tuple
        # comparison the row path ran, without materializing a Job.
        if (
            table.max_procs != full.max_procs
            or n >= len(full)
            or not all(
                np.array_equal(arr, full.columns[name][:n])
                for name, arr in table.columns.items()
            )
        ):
            raise _ChainInfeasible(cell.label())

    trunk = Simulator(
        full,
        make_scheduler(full_cell.kind, full_cell.priority, **full_cell.options_dict),
    )
    results: list[StoredResult] = []
    forks = 0
    mark = time.perf_counter()
    for cell, table in zip(group[:-1], tables[:-1]):
        trunk.run_until(len(table))
        snap = trunk.snapshot()
        branch = Simulator.resume(snap, table)
        result = branch.drain()
        forks += 1
        now = time.perf_counter()
        # The trunk segment since the last branch point is work this
        # cell's independent simulation would also have done; charging it
        # here keeps per-cell sim_seconds summing to the chain's total.
        results.append(
            StoredResult(
                metrics=result.metrics,
                events_processed=result.events_processed,
                sim_seconds=now - mark,
            )
        )
        mark = now
    final = trunk.drain()
    results.append(
        StoredResult(
            metrics=final.metrics,
            events_processed=final.events_processed,
            sim_seconds=time.perf_counter() - mark,
        )
    )
    return results, forks


def run_chain(
    group: Sequence[Cell], stats: ChainStats
) -> list[tuple[Cell, StoredResult]]:
    """Execute one chain group, folding its outcome into ``stats``.

    Singleton groups run the ordinary per-cell path.  Multi-cell groups
    try the forked trunk; any infeasibility or checkpoint error falls
    back to independent simulation of every cell (results identical, the
    shared-prefix saving just forfeited).
    """
    if len(group) == 1:
        return [(group[0], _simulate_independent(group[0]))]
    try:
        results, forks = _run_chain_forked(group)
    except (_ChainInfeasible, SimulationError):
        stats.fallbacks += 1
        return [(cell, _simulate_independent(cell)) for cell in group]
    stats.chains += 1
    stats.chained_cells += len(group)
    stats.forks += forks
    return list(zip(group, results))


def run_chain_groups(
    cells: Sequence[Cell],
    stats: ChainStats,
    commit=None,
):
    """Plan chains over ``cells`` and execute every group, yielding pairs.

    ``commit``, when given, receives each completed group's
    ``[(cell, stored), ...]`` list as soon as the group finishes — the
    executor passes the store's ``put_many`` here, so results persist in
    one write batch per chain group instead of one write per cell, and a
    killed sweep keeps everything up to the last whole group.
    """
    for group in plan_chains(cells):
        pairs = run_chain(group, stats)
        if commit is not None:
            commit(pairs)
        yield from pairs


def simulate_chunk_chained(
    cells: Sequence[Cell],
) -> tuple[list[StoredResult], ChainStats]:
    """Queue-worker task: simulate one lease, chaining within it (order
    preserved).

    A lease is a whole chain group (the queue never splits one), so
    re-planning here recovers exactly the group the coordinator
    enqueued.  No commit callback: the worker commits the results and
    the lease's ``done`` flip together, in one transaction.
    """
    stats = ChainStats()
    by_cell: dict[Cell, StoredResult] = dict(run_chain_groups(cells, stats))
    return [by_cell[cell] for cell in cells], stats
