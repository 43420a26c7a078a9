"""Perf smoke test: the store's bulk calls stay bulk — counted, not timed.

What makes SQLite resolve a warm grid fast is structural: a handful of
``IN (...)`` selects over the compact ``meta`` table, never a per-cell
probe and never a page of metrics text; and what makes writes cheap and
crash-safe is one transaction per ``put_many``.  Both are visible in the
statements the connection executes (``sqlite3.Connection.set_trace_callback``),
so they are asserted exactly — a lost optimization (resolution quietly
joining ``payloads``, a commit per row) changes a count, not a wall-clock
ratio a noisy runner can flip.

A warm read decodes each entry's typed columns with one vectorized
validation, so it builds no validated object: zero ``Job.__post_init__``
and zero ``CompletedJob.__post_init__`` calls, where the row-JSON
decoder made one of each per record.  Validation still happens — an
entry with one corrupted column value is dropped as corrupt and its cell
re-simulated.  Nor does it build a trusted one: a warm run stays columns,
so reading, hashing and re-storing it builds zero ``Job`` and zero
``CompletedJob`` objects, and its records are built once, on the first
read of ``.records`` (counted by wrapping the two trusted constructors).
A warm experiment rerun reads its runs' columns the same way, so it
builds none either.

A stored entry is one binary record that carries the run's aggregates,
so a warm read re-folds nothing and decodes no text: zero ``summarize``
folds, zero base64 decodes and one JSON parse per entry (its cell's
identity, none for its metrics).  An entry takes 360 bytes of header
and groups plus 144 per record, at most 150 per record on cells of 60
jobs or more.
"""

import base64
import binascii
import json
import math
import sqlite3
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.exec import Cell, CellExecutor, ResultStore, metrics_digest, simulate_cell
from repro.exec.backends.sqlite import _SELECT_CHUNK
from repro.exec.serialize import metrics_to_columns
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import clear_cache
from repro.metrics import collector
from repro.metrics.collector import CompletedJob
from repro.workload.job import Job
from repro.workload.table import INT_COLUMNS

from tests.oracles.record_objects import record_builds

N_CELLS = 3_000


@pytest.fixture(scope="module")
def cells():
    return [
        Cell(WorkloadSpec("CTC", 25, seed=seed, load_scale=0.75), "easy", "FCFS")
        for seed in range(N_CELLS)
    ]


@pytest.fixture(scope="module")
def stored(cells):
    return simulate_cell(cells[1])


def traced(store):
    """Every SQL statement ``store``'s connection executes from here on."""
    statements = []
    store.backend._connection().set_trace_callback(statements.append)
    return statements


@pytest.mark.perf
def test_warm_resolve_issues_one_meta_select_per_chunk(tmp_path, cells, stored):
    ResultStore(tmp_path).put_many((cell, stored) for cell in cells)

    warm = ResultStore(tmp_path)
    statements = traced(warm)
    resolved = warm.resolve_many(cells)

    assert len(resolved) == N_CELLS
    assert len(statements) == math.ceil(N_CELLS / _SELECT_CHUNK) == 4
    for statement in statements:
        assert statement.startswith("SELECT")
        assert "FROM meta" in statement
        assert "payloads" not in statement


@pytest.mark.perf
def test_put_many_batch_is_one_transaction(tmp_path, cells, stored):
    store = ResultStore(tmp_path)
    statements = traced(store)
    store.put_many((cell, stored) for cell in cells[:500])

    verbs = [statement.split()[0] for statement in statements]
    assert verbs[0] == "BEGIN" and verbs[-1] == "COMMIT"
    assert verbs.count("BEGIN") == verbs.count("COMMIT") == 1
    assert set(verbs[1:-1]) == {"INSERT"}
    assert store.entry_count() == 500


def small_grid() -> list[Cell]:
    return [
        Cell(WorkloadSpec(trace, 60, seed, 0.75, "user"), kind, "FCFS")
        for trace in ("CTC", "SDSC")
        for seed in (1, 2)
        for kind in ("easy", "cons")
    ]


@pytest.mark.perf
def test_warm_get_many_validates_no_row(tmp_path, monkeypatch):
    cells = small_grid()
    cold = CellExecutor(store=ResultStore(tmp_path)).execute(cells)

    calls = {Job: 0, CompletedJob: 0}
    for cls in calls:
        post_init = cls.__post_init__

        def counting(self, _post_init=post_init, _cls=cls):
            calls[_cls] += 1
            _post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    warm = ResultStore(tmp_path)
    resolved = warm.get_many(cells)
    monkeypatch.undo()

    assert warm.stats.disk_hits == len(cells) and warm.stats.corrupt_dropped == 0
    assert calls == {Job: 0, CompletedJob: 0}
    assert [metrics_digest(resolved[cell].metrics) for cell in cells] == [
        metrics_digest(metrics) for metrics in cold
    ]


NONE_BUILT = {Job: 0, CompletedJob: 0}


@pytest.mark.perf
def test_warm_runs_build_records_only_when_read(tmp_path):
    cells = small_grid()
    cold = CellExecutor(store=ResultStore(tmp_path)).execute(cells)

    with record_builds() as built:
        resolved = ResultStore(tmp_path).get_many(cells)
    assert len(resolved) == len(cells) and built == NONE_BUILT
    warm = [resolved[cell].metrics for cell in cells]
    with record_builds() as built:
        digests = [metrics_digest(metrics) for metrics in warm]
    assert built == NONE_BUILT
    assert digests == [metrics_digest(metrics) for metrics in cold]
    with record_builds() as built:
        for metrics in warm:
            metrics_to_columns(metrics)
            metrics.start_times()
    assert built == NONE_BUILT

    n = sum(len(metrics.table) for metrics in warm)
    with record_builds() as built:
        first = [metrics.records for metrics in warm]
    assert n > 0 and built == {Job: n, CompletedJob: n}
    with record_builds() as built:
        again = [metrics.records for metrics in warm]
    assert built == NONE_BUILT
    assert all(a is b for a, b in zip(first, again))
    assert [metrics.records for metrics in cold] == first
    # start_times() is built once per run, in either form.
    assert all(m.start_times() is m.start_times() for m in [*warm, *cold])
    assert [m.start_times() for m in warm] == [m.start_times() for m in cold]


@pytest.mark.perf
def test_warm_experiment_rerun_builds_no_record(tmp_path, capsys):
    # figure4 reads per-job slowdowns of a quality class from every run:
    # a warm rerun takes them, and the class's job ids, from columns.
    argv = ["experiment", "figure4", "--jobs", "100", "--seeds", "1",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    clear_cache()
    with record_builds() as built:
        assert main(argv) == 0
    assert built == NONE_BUILT
    assert capsys.readouterr().out == cold


def count_calls(monkeypatch, owner, name, calls):
    """Count calls to ``owner.name`` (looked up at call time) in ``calls``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.perf
def test_warm_get_many_folds_nothing_and_decodes_no_text(tmp_path, monkeypatch):
    cells = small_grid()
    cold = CellExecutor(store=ResultStore(tmp_path)).execute(cells)

    calls = {"_fold": 0, "b64decode": 0, "a2b_base64": 0, "loads": 0}
    count_calls(monkeypatch, collector, "_fold", calls)  # every summarize folds here
    count_calls(monkeypatch, base64, "b64decode", calls)
    count_calls(monkeypatch, binascii, "a2b_base64", calls)
    count_calls(monkeypatch, json, "loads", calls)
    warm = ResultStore(tmp_path)
    resolved = warm.get_many(cells)
    monkeypatch.undo()

    assert warm.stats.disk_hits == len(cells)
    # One JSON parse per entry, its cell's identity; none for metrics.
    assert calls == {"_fold": 0, "b64decode": 0, "a2b_base64": 0, "loads": len(cells)}
    assert [resolved[cell].metrics for cell in cells] == cold


@pytest.mark.perf
def test_a_stored_entry_is_360_bytes_plus_144_per_record(tmp_path):
    cells = small_grid()
    CellExecutor(store=ResultStore(tmp_path)).execute(cells)
    with sqlite3.connect(tmp_path / "results.sqlite") as conn:
        rows = conn.execute("SELECT metrics FROM payloads").fetchall()
    assert len(rows) == len(cells)
    total = records = 0
    for (blob,) in rows:
        assert type(blob) is bytes
        (n,) = struct.unpack_from("<q", blob)
        assert len(blob) == 360 + 144 * n
        total, records = total + len(blob), records + n
    # small_grid's cells hold 60 jobs each: exactly 150 bytes per record.
    assert records == 60 * len(cells) and total <= 150 * records


@pytest.mark.perf
def test_one_corrupted_column_value_is_dropped_and_resimulated(tmp_path):
    cells = small_grid()[:2]
    cold = CellExecutor(store=ResultStore(tmp_path)).execute(cells)
    victim = cells[0].content_hash()

    with sqlite3.connect(tmp_path / "results.sqlite") as conn:
        (blob,) = conn.execute(
            "SELECT metrics FROM payloads WHERE key = ?", (victim,)
        ).fetchone()
        (n,) = struct.unpack_from("<q", blob)
        ints = np.frombuffer(blob, "<i8", len(INT_COLUMNS) * n, 360).copy()
        ints.reshape(len(INT_COLUMNS), n)[INT_COLUMNS.index("procs"), 7] = -4
        blob = blob[:360] + ints.tobytes() + blob[360 + ints.nbytes :]
        conn.execute("UPDATE payloads SET metrics = ? WHERE key = ?", (blob, victim))

    executor = CellExecutor(store=ResultStore(tmp_path))
    warm = executor.execute(cells)
    stats = executor.store.stats
    assert stats.corrupt_dropped == 1 and stats.disk_hits == 1 and stats.misses == 1
    assert [metrics_digest(m) for m in warm] == [metrics_digest(m) for m in cold]
    # The re-simulated result replaced the damaged row.
    fresh = ResultStore(tmp_path)
    assert len(fresh.get_many(cells)) == 2 and fresh.stats.corrupt_dropped == 0
