"""Perf smoke test: a cheap floor under the kernel's throughput.

Runs one overloaded CTC cell (user estimates at load scale 0.4: deep
queues, every completion early, so the conservative repack — the
kernel's hottest path — runs at full depth) and asserts events/s stays
above a deliberately *generous* floor — an order of magnitude below what
the kernel actually delivers, so only a catastrophic regression (e.g.
accidentally reinstating the O(R^2) rebuild or per-segment Python
sweeps) trips it, not CI jitter or a slow runner.  Real numbers belong
to the ``deep_queue_repack`` workload of ``benchmarks/e2e``; this is
just the tripwire that runs on every push (``-m perf``).
"""

import time

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_workload
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sim.engine import simulate

#: Deliberately generous: the kernel does >8000 ev/s on this cell on a
#: 1-core container; the seed kernel managed ~1500 on comparable load.
FLOOR_EVENTS_PER_SECOND = 700.0


@pytest.mark.perf
def test_conservative_repack_throughput_floor():
    workload = make_workload(WorkloadSpec("CTC", 600, 1, 0.4, "user"))
    started = time.perf_counter()
    result = simulate(workload, ConservativeScheduler())
    elapsed = time.perf_counter() - started
    assert len(result.completed) == 600
    events_per_second = result.events_processed / elapsed
    assert events_per_second >= FLOOR_EVENTS_PER_SECOND, (
        f"kernel throughput collapsed: {events_per_second:.0f} ev/s "
        f"(floor {FLOOR_EVENTS_PER_SECOND:.0f}); run "
        "benchmarks/e2e/run.py --workload deep_queue_repack"
    )
