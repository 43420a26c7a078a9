"""Perf smoke test: the table-native feed must not lose to the row path.

Runs a one-seed CTC grid through both feeds: the row leg converts each
truncated ``JobTable`` to a ``Workload`` first, the table leg hands the
table to ``simulate`` and builds jobs lazily per arrival batch.  The two
legs share the whole event loop, so the table feed keeps up exactly when
it does no more *work* than the row ``Workload`` reference: the same
engine events and no more ``Job`` objects built — deterministic counts,
not a wall-clock ratio a noisy runner can flip — while the schedules
themselves must match *exactly*.  Wall-clock belongs to the two legs of
the ``swf_replay`` workload of ``benchmarks/e2e``; this is the guard that
runs on every push (``-m perf``).
"""

import pytest

from repro.exec import metrics_digest
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_scheduler, make_workload_table
from repro.sim.engine import simulate
from repro.workload.job import Job
from repro.workload.transforms import truncate


def _sources(conditions, *, table: bool):
    """One truncated workload per ``(spec, horizon)``, as a table or rows."""
    for spec, horizon in conditions:
        source = truncate(make_workload_table(spec), max_jobs=horizon)
        yield source if table else source.to_workload()


def _simulate_all(conditions, *, table: bool):
    """No-backfill FCFS results, one per condition."""
    return [
        simulate(source, make_scheduler("nobf", "FCFS"))
        for source in _sources(conditions, table=table)
    ]


@pytest.fixture()
def conditions():
    return [
        (WorkloadSpec("CTC", 500, 1, load, "user"), horizon)
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
    row_events = sum(r.events_processed for r in _simulate_all(conditions, table=False))
    row_jobs = sum(built)
    built.clear()
    table_events = sum(r.events_processed for r in _simulate_all(conditions, table=True))
    table_jobs = sum(built)
    assert row_events == table_events
    assert row_jobs == table_jobs == sum(horizon for _, horizon in conditions)


@pytest.mark.perf
def test_both_feeds_schedule_identically(conditions):
    rows, tables = (
        [metrics_digest(r.metrics) for r in _simulate_all(conditions, table=table)]
        for table in (False, True)
    )
    assert rows == tables
