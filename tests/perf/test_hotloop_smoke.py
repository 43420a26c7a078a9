"""Perf smoke test: the table-native feed must not lose to the row path.

Runs a one-seed slice of the ``benchmarks/bench_hotloop.py`` grid
through both feeds.  The two legs share the whole event loop, so the
table feed keeps up exactly when it does no more *work* than the row
``Workload`` reference: the same engine events and no more ``Job``
objects built — deterministic counts, not a wall-clock ratio a noisy
runner can flip — while the schedules themselves must match *exactly*.
Real numbers belong to ``benchmarks/bench_hotloop.py`` +
``benchmarks/compare_bench.py`` against the checked-in
``BENCH_hotloop.json``; this is the guard that runs on every push
(``-m perf``).
"""

import pytest

from repro.experiments.config import WorkloadSpec
from repro.workload.job import Job

from benchmarks.bench_hotloop import (
    TRACE,
    digest_sweep,
    run_row_serial,
    run_table_serial,
)


@pytest.fixture()
def conditions():
    return [
        (WorkloadSpec(TRACE, 500, 1, load, "user"), horizon)
        for load in (0.9, 1.2)
        for horizon in (300, 500)
    ]


@pytest.mark.perf
def test_table_feed_keeps_up_with_row_feed(conditions, monkeypatch):
    build = Job._from_trusted_columns
    built = []

    def counting_build(field_lists):
        jobs = build(field_lists)
        built.append(len(jobs))
        return jobs

    monkeypatch.setattr(Job, "_from_trusted_columns", counting_build)
    row_events = run_row_serial(conditions)
    row_jobs = sum(built)
    built.clear()
    table_events = run_table_serial(conditions)
    table_jobs = sum(built)
    assert row_events == table_events
    assert row_jobs == table_jobs == sum(horizon for _, horizon in conditions)


@pytest.mark.perf
def test_both_feeds_schedule_identically(conditions):
    assert digest_sweep(conditions, table=False) == digest_sweep(
        conditions, table=True
    )
