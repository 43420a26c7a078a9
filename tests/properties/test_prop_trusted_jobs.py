"""Property suite: the trusted bulk Job constructor is the validated
row constructor minus the re-validation — never minus the validation.

Three contracts are pinned:

* **materialization equivalence** — ``Job._from_trusted_columns`` over a
  ``JobTable``'s field lists yields objects field-for-field equal to
  ``Job(*row)`` on the same data, for arbitrary valid column contents
  (hypothesis-generated) and for real generated traces;
* **rejection at the table boundary** — every malformed value the row
  ``__post_init__`` would reject is rejected by ``JobTable`` construction
  itself, with the same message, so no invalid row can ever reach the
  trusted constructor through a table;
* **feed equivalence** — handing a ``JobTable`` straight to ``simulate``
  (lazy per-batch materialization through the trusted constructor)
  produces *exactly* the metrics of simulating ``table.to_workload()``,
  and an unsorted table is refused with the row path's ordering error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    SCHEDULER_KINDS,
    make_scheduler,
    make_workload_table,
)
from repro.sim.engine import simulate
from repro.sim.feed import RowArrivalFeed, TableArrivalFeed, make_feed
from repro.workload.job import Job, _trusted_job
from repro.workload.table import (
    FLOAT_COLUMNS,
    INT_COLUMNS,
    JobTable,
    JOB_FIELDS,
)
from repro.workload.transforms import truncate

MAX_PROCS = 64


def _table_from_columns(**overrides) -> JobTable:
    """A small, fully valid table; keyword overrides patch single columns."""
    n = 6
    columns = {
        "job_id": np.arange(1, n + 1, dtype=np.int64),
        "procs": np.full(n, 4, dtype=np.int64),
        "submit_time": np.linspace(0.0, 500.0, n),
        "runtime": np.full(n, 120.0),
        "estimate": np.full(n, 240.0),
    }
    for name in INT_COLUMNS:
        columns.setdefault(name, np.full(n, -1, dtype=np.int64))
    for name in FLOAT_COLUMNS:
        columns.setdefault(name, np.full(n, -1.0))
    for name, values in overrides.items():
        columns[name] = np.asarray(values, dtype=columns[name].dtype)
    return JobTable(columns=columns, max_procs=MAX_PROCS)


# -- hypothesis strategy for arbitrary *valid* column contents ---------------

positive_floats = st.floats(
    min_value=1e-3, max_value=1e7, allow_nan=False, allow_infinity=False
)
submit_floats = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
)
meta_ints = st.integers(min_value=-1, max_value=10_000)
meta_floats = st.floats(
    min_value=-1.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def job_tables(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    col = lambda strategy: draw(
        st.lists(strategy, min_size=n, max_size=n)
    )
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    columns = {
        "job_id": np.asarray(ids, dtype=np.int64),
        "procs": np.asarray(
            col(st.integers(min_value=1, max_value=MAX_PROCS)), dtype=np.int64
        ),
        "submit_time": np.asarray(col(submit_floats)),
        "runtime": np.asarray(col(positive_floats)),
        "estimate": np.asarray(col(positive_floats)),
    }
    for name in INT_COLUMNS:
        columns.setdefault(name, np.asarray(col(meta_ints), dtype=np.int64))
    for name in FLOAT_COLUMNS:
        columns.setdefault(name, np.asarray(col(meta_floats)))
    return JobTable(columns=columns, max_procs=MAX_PROCS)


class TestTrustedEqualsValidated:
    @settings(max_examples=50, deadline=None)
    @given(job_tables())
    def test_bulk_matches_row_constructor(self, table):
        field_lists = table.field_lists()
        trusted = Job._from_trusted_columns(field_lists)
        validated = tuple(Job(*row) for row in zip(*field_lists))
        assert trusted == validated
        for a, b in zip(trusted, validated):
            assert type(a) is Job
            for name in JOB_FIELDS:
                got, want = getattr(a, name), getattr(b, name)
                assert got == want
                assert type(got) is type(want)  # builtin int/float, not numpy

    @settings(max_examples=25, deadline=None)
    @given(job_tables())
    def test_single_row_factory_matches(self, table):
        rows = list(zip(*table.field_lists()))
        for row in rows[:5]:
            assert _trusted_job(*row) == Job(*row)

    def test_real_trace_matches(self):
        table = make_workload_table(WorkloadSpec("CTC", 150, 3, 0.9, "user"))
        field_lists = table.field_lists()
        assert Job._from_trusted_columns(field_lists) == tuple(
            Job(*row) for row in zip(*field_lists)
        )

    def test_empty_columns(self):
        assert Job._from_trusted_columns([[] for _ in JOB_FIELDS]) == ()


class TestMalformedColumnsRejected:
    """Whatever ``Job.__post_init__`` refuses per row, ``JobTable``
    refuses per column — before any trusted constructor can run."""

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"job_id": [1, -2, 3, 4, 5, 6]}, "job_id must be non-negative"),
            (
                {"submit_time": [0.0, 1.0, -3.0, 3.0, 4.0, 5.0]},
                "submit_time must be finite and >= 0",
            ),
            (
                {"submit_time": [0.0, 1.0, math.nan, 3.0, 4.0, 5.0]},
                "submit_time must be finite and >= 0",
            ),
            (
                {"runtime": [10.0, 0.0, 10.0, 10.0, 10.0, 10.0]},
                "runtime must be finite and > 0",
            ),
            (
                {"runtime": [10.0, math.inf, 10.0, 10.0, 10.0, 10.0]},
                "runtime must be finite and > 0",
            ),
            (
                {"estimate": [9.0, 9.0, 9.0, -1.0, 9.0, 9.0]},
                "estimate must be finite and > 0",
            ),
            ({"procs": [1, 1, 1, 1, 0, 1]}, "procs must be > 0"),
            ({"job_id": [1, 2, 3, 3, 5, 6]}, "duplicate job_id"),
            (
                {"procs": [1, 1, 1, 1, 1, MAX_PROCS + 1]},
                f"machine only has {MAX_PROCS}",
            ),
        ],
    )
    def test_bad_value_raises_at_construction(self, override, message):
        with pytest.raises(WorkloadError, match=message):
            _table_from_columns(**override)

    def test_rejected_value_matches_row_error(self):
        # Same message text as the row constructor produces for the
        # same bad row, so a caller switching paths sees one diagnostic.
        with pytest.raises(WorkloadError) as table_err:
            _table_from_columns(runtime=[10.0, -5.0, 10.0, 10.0, 10.0, 10.0])
        with pytest.raises(WorkloadError) as row_err:
            Job(job_id=2, submit_time=100.0, runtime=-5.0, estimate=240.0, procs=4)
        assert str(table_err.value) == str(row_err.value)

    def test_missing_column_raises(self):
        table = _table_from_columns()
        columns = dict(table.columns)
        del columns["runtime"]
        with pytest.raises(WorkloadError, match="missing columns"):
            JobTable(columns=columns, max_procs=MAX_PROCS)

    def test_unequal_lengths_raise(self):
        table = _table_from_columns()
        columns = dict(table.columns)
        columns["runtime"] = columns["runtime"][:-1]
        with pytest.raises(WorkloadError, match="unequal lengths"):
            JobTable(columns=columns, max_procs=MAX_PROCS)


class TestTableFeedEquivalence:
    """The table-native simulation path is byte-identical to the row path."""

    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_simulate_table_matches_workload(self, kind):
        table = truncate(
            make_workload_table(WorkloadSpec("CTC", 150, 2, 1.1, "user")),
            max_jobs=120,
        )
        via_rows = simulate(table.to_workload(), make_scheduler(kind, "FCFS"))
        via_table = simulate(table, make_scheduler(kind, "FCFS"))
        assert via_table.metrics == via_rows.metrics
        assert via_table.events_processed == via_rows.events_processed

    def test_make_feed_dispatch(self):
        table = _table_from_columns()
        assert isinstance(make_feed(table), TableArrivalFeed)
        assert isinstance(make_feed(table.to_workload()), RowArrivalFeed)

    def test_unsorted_table_is_refused(self):
        table = _table_from_columns(
            submit_time=[0.0, 100.0, 50.0, 200.0, 300.0, 400.0]
        )
        with pytest.raises(WorkloadError, match="ordered by submit_time"):
            TableArrivalFeed(table)
        with pytest.raises(WorkloadError, match="ordered by submit_time"):
            simulate(table, make_scheduler("easy", "FCFS"))

    def test_lazy_materialization_is_blockwise_and_stable(self):
        table = make_workload_table(WorkloadSpec("CTC", 1500, 1, 1.0, "user"))
        feed = TableArrivalFeed(table)
        first = feed.materialize(0, 10)
        # One block, not the whole table; repeated calls return the
        # identical objects (the engine relies on `is`-stable jobs).
        assert len(feed._jobs) == TableArrivalFeed._BLOCK
        assert all(a is b for a, b in zip(first, feed.materialize(0, 10)))
        everything = feed.materialize(0, feed.n)
        assert tuple(everything) == table.to_workload().jobs
        assert feed.as_workload().jobs == table.to_workload().jobs
