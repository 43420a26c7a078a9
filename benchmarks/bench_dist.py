"""Distributed sweep benchmark: worker scaling, equivalence, fault recovery.

The distributed executor (``repro.exec.dist``) promises three things that
only an end-to-end measurement can back up, and this benchmark records
all three into ``benchmarks/BENCH_dist.json``:

* **equivalence** — the paper-shaped 90-cell CTC sweep (same grid as
  ``bench_chain.py``, horizon expressed as the chainable ``n_jobs``
  axis) run through a serial :class:`CellExecutor` and through a
  :class:`DistExecutor` with two spawned workers must produce
  digest-identical metrics.  This leg runs on *every* host — on a 1-CPU
  container the two workers are deliberately oversubscribed, which
  proves correctness (disjoint leases, same results) even where it
  cannot prove speedup;
* **fault recovery** — a synthetic grid is drained by a worker that gets
  ``SIGKILL``-ed mid-sweep plus a "ghost" owner holding leases it will
  never finish; the surviving inline worker must steal every orphaned
  lease after expiry and finish the sweep with results digest-identical
  to serial, zero poisoned cells, and a nonzero retry count;
* **scaling** — N distinct single-cell chain groups (default 10k,
  ``BENCH_DIST_CELLS`` overrides) drained by 1 worker process gives the
  throughput anchor (``dist_1worker_cells_per_second``, gated by
  ``compare_bench.py``); on hosts with more than 2 CPUs a 2-worker leg
  must beat it by :data:`SCALING_SPEEDUP_FLOOR`.  On smaller hosts the
  2-worker scaling leg only measures contention for one core, so it is
  skipped and marked ``scaling_leg_run: false`` with the reason recorded
  — the oversubscribed equivalence leg above still runs.

Worker processes are real spawned interpreters draining the real queue,
so every number includes lease claiming, SQLite commits, and process
startup — the honest cost of distributing, not just the simulation.
"""

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.exec import (
    Cell,
    CellExecutor,
    CellQueue,
    DistExecutor,
    ResultStore,
    metrics_digest,
    simulate_cell,
)
from repro.exec.dist import run_worker, worker_process_main
from repro.exec.queue import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import clear_cache
from repro.hostinfo import host_provenance

# The bench_chain.py grid, with the horizon axis expressed as n_jobs so
# each (seed, load) column forms one three-cell chain group.
TRACE = "CTC"
SEEDS = (1, 2, 3, 4, 5, 6)
LOAD_SCALES = (0.8, 0.94, 1.08, 1.22, 1.36)
HORIZONS = (750, 1125, 1500)
ESTIMATE = "user"
SCHEDULER = ("nobf", "FCFS")

#: Synthetic scaling-grid size; the checked-in snapshot uses the default.
N_SYNTH = int(os.environ.get("BENCH_DIST_CELLS", "10000"))

#: Synthetic cells drained in the fault-injection leg — small enough to
#: re-simulate serially for the digest reference, large enough that the
#: victim worker is reliably mid-drain when killed.
N_FAULT = 600

#: Lease duration for the fault leg: short enough that stolen leases come
#: back within the leg, long enough that a live worker never loses one.
FAULT_LEASE_SECONDS = 2.0

#: Groups per claim batch for the synthetic legs (singleton groups, so
#: larger batches amortize the claim transaction).
SYNTH_BATCH_GROUPS = 16

#: Sanity floor for one worker's drain throughput — far below the
#: measured rate so only a lost optimization (e.g. per-cell claim
#: transactions) trips it, not host noise.
DRAIN_CELLS_PER_SECOND_FLOOR = 20.0

#: Required 2-worker speedup on multi-CPU hosts.
SCALING_SPEEDUP_FLOOR = 1.5


def sweep_cells() -> list[Cell]:
    """The 90-cell CTC sweep as chainable cells (30 groups of 3)."""
    return [
        Cell(WorkloadSpec(TRACE, horizon, seed, load, ESTIMATE), *SCHEDULER)
        for seed in SEEDS
        for load in LOAD_SCALES
        for horizon in HORIZONS
    ]


def synthetic_cells(n: int) -> list[Cell]:
    """``n`` distinct cells that each plan into their own chain group.

    Every cell gets its own generator seed, so no two share a base
    workload: the queue sees ``n`` independent lease units, which is the
    worst case for claim overhead and the honest shape for a scaling
    measurement.
    """
    kinds = ("easy", "cons", "nobf")
    return [
        Cell(
            WorkloadSpec(TRACE, 60 + (i % 31), seed=i + 1, load_scale=1.0),
            kinds[i % 3],
            "FCFS",
        )
        for i in range(n)
    ]


def _drain_with_workers(cells: list[Cell], n_workers: int) -> tuple[float, float]:
    """(enqueue seconds, drain seconds) for ``n_workers`` spawned workers.

    The drain timer spans process start to last join — startup is part
    of what a distributed sweep pays, and both worker counts pay it.
    """
    with TemporaryDirectory(prefix=f"bench_dist_{n_workers}w_") as tmp:
        queue = CellQueue(tmp)
        started = time.perf_counter()
        enqueued = queue.enqueue(cells)
        enqueue_seconds = time.perf_counter() - started
        assert enqueued.enqueued == len(cells)

        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=worker_process_main,
                args=(
                    tmp,
                    f"bench:w{index}",
                    DEFAULT_LEASE_SECONDS,
                    DEFAULT_MAX_ATTEMPTS,
                    SYNTH_BATCH_GROUPS,
                    0.2,
                ),
            )
            for index in range(n_workers)
        ]
        started = time.perf_counter()
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        drain_seconds = time.perf_counter() - started

        assert all(proc.exitcode == 0 for proc in procs)
        stats = queue.stats()
        assert stats.done_cells == len(cells), stats.render()
        assert stats.poisoned_cells == 0, stats.render()
        queue.close()
        return enqueue_seconds, drain_seconds


def _run_fault_injection(cells: list[Cell], serial_digests: list[str]) -> dict:
    """Kill a worker mid-drain, strand ghost leases, finish, verify."""
    with TemporaryDirectory(prefix="bench_dist_fault_") as tmp:
        queue = CellQueue(
            tmp, lease_seconds=FAULT_LEASE_SECONDS, max_attempts=DEFAULT_MAX_ATTEMPTS
        )
        queue.enqueue(cells)

        # A "ghost" owner claims two groups and never comes back — the
        # deterministic guarantee that the steal path runs even if the
        # victim below dies before claiming anything.
        ghost_groups = queue.claim("ghost", limit_groups=2)
        assert len(ghost_groups) == 2

        ctx = multiprocessing.get_context("spawn")
        victim = ctx.Process(
            target=worker_process_main,
            args=(tmp, "victim", FAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS, 4, 0.1),
        )
        victim.start()
        # Kill once the victim has visibly committed work (mid-drain),
        # or immediately if it somehow exits first.
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if victim.exitcode is not None or queue.stats().done_cells > 0:
                break
            time.sleep(0.005)
        killed_alive = victim.is_alive()
        if killed_alive:
            os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        done_at_kill = queue.stats().done_cells

        # The survivor: an inline worker that must wait out the orphaned
        # leases, steal them, and finish the sweep.
        report = run_worker(
            tmp,
            owner="survivor",
            lease_seconds=FAULT_LEASE_SECONDS,
            max_attempts=DEFAULT_MAX_ATTEMPTS,
            batch_groups=4,
            poll_seconds=0.1,
        )

        stats = queue.stats()
        assert stats.done_cells == len(cells), stats.render()
        assert stats.poisoned_cells == 0, stats.render()
        assert stats.open_cells == 0, stats.render()
        # The two ghost groups were stolen at minimum; a mid-drain kill
        # usually strands a few more.
        assert stats.retried_cells >= 2, stats.render()

        store = ResultStore(tmp)
        fetched = store.get_many(cells)
        assert len(fetched) == len(cells)
        recovered_digests = [metrics_digest(fetched[cell].metrics) for cell in cells]
        assert recovered_digests == serial_digests, (
            "fault-recovered results diverged from serial simulation"
        )
        queue.close()
        return {
            "fault_n_cells": len(cells),
            "fault_lease_seconds": FAULT_LEASE_SECONDS,
            "fault_victim_killed_mid_drain": bool(killed_alive),
            "fault_done_cells_at_kill": done_at_kill,
            "fault_retried_cells": stats.retried_cells,
            "fault_poisoned_cells": stats.poisoned_cells,
            "fault_survivor_cells": report.cells_simulated,
            "fault_digest_match": True,
        }


def test_dist_sweep_writes_bench_json():
    """Serial vs distributed sweep + fault + scaling -> BENCH_dist.json."""
    cpu_count = os.cpu_count() or 1
    payload = {
        "schema": 1,
        "host": host_provenance(),
        "trace": TRACE,
        "n_sweep_cells": 0,
        "n_synth_cells": N_SYNTH,
        "synth_batch_groups": SYNTH_BATCH_GROUPS,
    }

    # -- leg 1: 90-cell CTC sweep, serial reference vs 2 dist workers ----------
    cells = sweep_cells()
    payload["n_sweep_cells"] = len(cells)

    clear_cache()
    with TemporaryDirectory(prefix="bench_dist_serial_") as tmp:
        serial = CellExecutor(store=ResultStore(tmp))
        started = time.perf_counter()
        serial_metrics = serial.execute(cells)
        serial_seconds = time.perf_counter() - started
    serial_sweep_digests = [metrics_digest(m) for m in serial_metrics]

    with TemporaryDirectory(prefix="bench_dist_sweep_") as tmp:
        dist = DistExecutor(tmp, workers=2)
        started = time.perf_counter()
        dist_metrics = dist.execute(cells)
        dist_seconds = time.perf_counter() - started
        report = dist.last_report
        assert report.parallel_used and "2 local workers" in report.parallel_reason
        dist.queue.close()
    dist_sweep_digests = [metrics_digest(m) for m in dist_metrics]
    assert dist_sweep_digests == serial_sweep_digests, (
        "distributed sweep results diverged from serial execution"
    )

    payload.update(
        {
            "serial_sweep_seconds": round(serial_seconds, 3),
            "serial_sweep_cells_per_second": round(len(cells) / serial_seconds, 2),
            "dist_sweep_workers": 2,
            "dist_sweep_oversubscribed": cpu_count <= 2,
            "dist_sweep_seconds": round(dist_seconds, 3),
            "dist_sweep_cells_per_second": round(len(cells) / dist_seconds, 2),
            "dist_sweep_digest_match": True,
        }
    )

    # -- leg 2: kill-one-worker fault injection --------------------------------
    fault_cells = synthetic_cells(N_FAULT)
    serial_fault_digests = [
        metrics_digest(simulate_cell(cell).metrics) for cell in fault_cells
    ]
    payload.update(_run_fault_injection(fault_cells, serial_fault_digests))

    # -- leg 3: synthetic-grid worker scaling ----------------------------------
    synth = synthetic_cells(N_SYNTH)
    for cell in synth:
        cell.content_hash()

    enqueue_seconds, one_worker_seconds = _drain_with_workers(synth, 1)
    one_worker_rate = N_SYNTH / one_worker_seconds
    payload.update(
        {
            "synth_enqueue_seconds": round(enqueue_seconds, 3),
            "dist_1worker_seconds": round(one_worker_seconds, 3),
            "dist_1worker_cells_per_second": round(one_worker_rate, 1),
        }
    )

    scaling_leg_run = cpu_count > 2
    payload.update(
        {
            "cpu_count": cpu_count,
            "scaling_leg_run": scaling_leg_run,
            "scaling_leg_skip_reason": (
                None
                if scaling_leg_run
                else (
                    f"host has {cpu_count} CPU(s); a second worker would "
                    "contend for the same core, so the scaling claim is "
                    "covered by the oversubscribed equivalence leg instead"
                )
            ),
            "dist_2worker_seconds": None,
            "dist_2worker_cells_per_second": None,
            "scaling_speedup": None,
        }
    )
    if scaling_leg_run:
        _, two_worker_seconds = _drain_with_workers(synth, 2)
        speedup = one_worker_seconds / two_worker_seconds
        payload.update(
            {
                "dist_2worker_seconds": round(two_worker_seconds, 3),
                "dist_2worker_cells_per_second": round(
                    N_SYNTH / two_worker_seconds, 1
                ),
                "scaling_speedup": round(speedup, 2),
            }
        )

    out = Path(__file__).parent / "BENCH_dist.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    assert one_worker_rate >= DRAIN_CELLS_PER_SECOND_FLOOR, (
        f"queue drain throughput collapsed: {one_worker_rate:.1f} cells/s "
        f"(floor {DRAIN_CELLS_PER_SECOND_FLOOR}); compare against the "
        "checked-in BENCH_dist.json with benchmarks/compare_bench.py"
    )
    if scaling_leg_run:
        assert payload["scaling_speedup"] >= SCALING_SPEEDUP_FLOOR, (
            f"2-worker scaling collapsed: {payload['scaling_speedup']}x "
            f"(floor {SCALING_SPEEDUP_FLOOR}x)"
        )
