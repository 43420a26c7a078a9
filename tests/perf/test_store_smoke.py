"""Perf smoke test: the store's bulk calls stay bulk — counted, not timed.

What makes SQLite resolve a warm grid fast is structural: a handful of
``IN (...)`` selects over the compact ``meta`` table, never a per-cell
probe and never a page of metrics text; and what makes writes cheap and
crash-safe is one transaction per ``put_many``.  Both are visible in the
statements the connection executes (``sqlite3.Connection.set_trace_callback``),
so they are asserted exactly — a lost optimization (resolution quietly
joining ``payloads``, a commit per row) changes a count, not a wall-clock
ratio a noisy runner can flip.
"""

import math

import pytest

from repro.exec import Cell, ResultStore, simulate_cell
from repro.exec.backends.sqlite import _SELECT_CHUNK
from repro.experiments.config import WorkloadSpec

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
