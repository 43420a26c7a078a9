"""SWF quirk parity: the one reader against the frozen row reference.

Every real-archive quirk the line-at-a-time reader
(``tests/oracles/row_pipeline.py:read_swf_rows``) tolerates — missing
trailing fields, ``-1`` placeholders, unsorted submit times, skipped
failed jobs, over-wide jobs clamped against the machine, ``max_jobs``
truncation — must parse identically through ``read_swf`` and
``read_swf_table``, including skip counts, header metadata, and error
messages on malformed lines.  Non-finite fields are where the shipped
reader deliberately parts from the reference; they are pinned by value.
"""

import io

import numpy as np
import pytest

from repro.errors import SWFFormatError, WorkloadError
from repro.workload.job import Workload
from repro.workload.swf import parse_swf_line, read_swf, read_swf_table, write_swf
from repro.workload.table import JobTable

from tests.oracles.row_pipeline import read_swf_rows

QUIRKY = """\
; MaxProcs: 128
; UnixStartTime: 0
; Note: synthetic quirk fixture
1 100 -1 300 16 -1 -1 16 600 -1 1 3 2 7 1 0 -1 -1
2 50 -1 200 -1 -1 -1 8 -1 -1 1 4 2 7 1 0 -1 -1
3 120 -1 0 4 -1 -1 4 100 -1 0 5 2 7 1 0 -1 -1
4 -5 -1 100 4 -1 -1 4 100 -1 1 5 2 7 1 0 -1 -1
5 130 -1 100 4 -1 -1 -1 100 -1 1 5 2 7 1 0 -1 -1
6 140 -1 100 200 -1 -1 200 100 -1 1 5 2 7 1 0 -1 -1
7 90 -1 50 2 -1 -1 2 75
8 95 -1 60 1

-9 100 -1 50 2 -1 -1 2 75 -1 1 1 1 1 1 1 -1 -1
10 85.5 -1 33.25 3 12.5 1000 3 40 2000 1 9 8 7 6 5 4 3.5
"""


def _rows(text, **kw):
    return read_swf_rows(io.StringIO(text), name="q", **kw)


def _cols(text, **kw):
    return read_swf(io.StringIO(text), name="q", **kw)


def _table(text, **kw):
    return read_swf_table(io.StringIO(text), name="q", **kw)


def _assert_same(a: Workload, b: Workload):
    assert a.jobs == b.jobs
    assert a.max_procs == b.max_procs
    assert a.name == b.name
    assert a.metadata == b.metadata


class TestQuirkParity:
    def test_quirky_fixture_identical(self):
        rows = _rows(QUIRKY)
        _assert_same(rows, _cols(QUIRKY))
        _assert_same(rows, _table(QUIRKY).to_workload())
        # The fixture's quirks all landed: 4 unusable/clamped lines
        # (zero runtime, negative submit, negative id, over-wide) and
        # unsorted submits re-sorted.
        assert rows.metadata["skipped"] == 4
        submits = [j.submit_time for j in rows.jobs]
        assert submits == sorted(submits)

    def test_missing_trailing_fields_padded(self):
        rows = _rows(QUIRKY)
        short_line_job = next(j for j in rows.jobs if j.job_id == 8)
        # Fields beyond the 5 given ones default like explicit -1s,
        # except estimate, which falls back to the runtime.
        assert short_line_job.estimate == short_line_job.runtime
        assert short_line_job.user_id == -1
        assert short_line_job.think_time == -1.0

    def test_placeholder_minus_one_procs_fall_back_to_allocated(self):
        rows = _rows(QUIRKY)
        job5 = next(j for j in rows.jobs if j.job_id == 5)
        assert job5.procs == 4  # requested was -1, allocated 4

    @pytest.mark.parametrize("max_jobs", [0, 1, 2, 3, 5, 100])
    def test_max_jobs_truncation_parity(self, max_jobs):
        rows = _rows(QUIRKY, max_jobs=max_jobs)
        _assert_same(rows, _cols(QUIRKY, max_jobs=max_jobs))
        _assert_same(rows, _table(QUIRKY, max_jobs=max_jobs).to_workload())

    def test_max_procs_override_parity(self):
        rows = _rows(QUIRKY, max_procs=8)
        _assert_same(rows, _cols(QUIRKY, max_procs=8))
        _assert_same(rows, _table(QUIRKY, max_procs=8).to_workload())

    def test_inferred_machine_size_parity(self):
        no_header = "\n".join(
            line for line in QUIRKY.splitlines() if not line.startswith(";")
        )
        rows = _rows(no_header)
        _assert_same(rows, _cols(no_header))
        _assert_same(rows, _table(no_header).to_workload())


class TestWriteReadRoundTrip:
    def test_round_trip_through_write_swf(self):
        rows = _rows(QUIRKY)
        buffer = io.StringIO()
        write_swf(rows, buffer)
        text = buffer.getvalue()
        again_rows = _rows(text)
        again_cols = _cols(text)
        again_table = _table(text).to_workload()
        _assert_same(again_rows, again_cols)
        _assert_same(again_rows, again_table)
        assert [j.job_id for j in again_rows.jobs] == [j.job_id for j in rows.jobs]


class TestErrorParity:
    TOO_MANY = "; MaxProcs: 4\n1 1 -1 10 1 -1 -1 1 10 -1 1 1 1 1 1 1 -1 -1 99\n"
    NON_NUMERIC = (
        "; MaxProcs: 4\n"
        "1 1 -1 10 1 -1 -1 1 10 -1 1 1 1 1 1 1 -1 -1\n"
        "2 xx -1 10 1 -1 -1 1 10 -1 1 1 1 1 1 1 -1 -1\n"
    )

    @pytest.mark.parametrize("bad", [TOO_MANY, NON_NUMERIC])
    def test_identical_error_messages(self, bad):
        with pytest.raises(SWFFormatError) as rows_err:
            _rows(bad)
        with pytest.raises(SWFFormatError) as cols_err:
            _cols(bad)
        with pytest.raises(SWFFormatError) as table_err:
            _table(bad)
        assert str(cols_err.value) == str(rows_err.value)
        assert str(table_err.value) == str(rows_err.value)

    def test_error_hidden_behind_max_jobs_cutoff(self):
        # The row reader stops before reaching the bad line; so must
        # the one reader, through both of its entry points.
        rows = _rows(self.NON_NUMERIC, max_jobs=1)
        _assert_same(rows, _cols(self.NON_NUMERIC, max_jobs=1))
        _assert_same(rows, _table(self.NON_NUMERIC, max_jobs=1).to_workload())

    def test_no_maxprocs_and_no_jobs(self):
        empty = "; Note: nothing here\n"
        for parse in (_rows, _cols, _table):
            with pytest.raises(SWFFormatError, match="no MaxProcs header"):
                parse(empty)

    def test_repeated_id_reported_at_first_repeat_in_submit_order(self):
        # Ids 5 and 7 both repeat; in submit order (50, 60, 100, 200) the
        # first repeat is 7, in file order it would be 5.
        text = "; MaxProcs: 4\n" + "".join(
            f"{job_id} {submit} -1 10 1 -1 -1 1 10\n"
            for job_id, submit in ((5, 100), (7, 50), (5, 200), (7, 60))
        )
        for parse in (_rows, _cols, _table):
            with pytest.raises(WorkloadError, match="^duplicate job_id 7 in workload$"):
                parse(text)


class TestNonFiniteFields:
    """Any non-finite field is a malformed line, named by its number.

    The frozen row reader skips a ``nan`` submit or runtime and lets
    ``Job`` reject an ``inf`` runtime or estimate without a line number,
    so these are pinned by value rather than by parity."""

    GOOD = "1 1 -1 10 1 -1 -1 1 10 -1 1 1 1 1 1 1 -1 -1\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2 nan -1 10 1 -1 -1 1 10", "line 3: field 2 is not finite: nan"),
            ("2 5 -1 nan 1 -1 -1 1 10", "line 3: field 4 is not finite: nan"),
            ("2 5 -1 inf 1 -1 -1 1 10", "line 3: field 4 is not finite: inf"),
            ("2 5 -1 10 1 -1 -1 1 inf", "line 3: field 9 is not finite: inf"),
        ],
        ids=["nan-submit", "nan-runtime", "inf-runtime", "inf-estimate"],
    )
    def test_non_finite_field_raises_with_its_line(self, line, message):
        text = "; MaxProcs: 4\n" + self.GOOD + line + "\n"
        for parse in (_cols, _table):
            with pytest.raises(SWFFormatError) as err:
                parse(text)
            assert str(err.value) == message
        with pytest.raises(SWFFormatError) as err:
            parse_swf_line(line, line_number=3)
        assert str(err.value) == message
        # Past the max_jobs cutoff the line is never read.
        assert len(_cols(text, max_jobs=1)) == 1


class TestTableShape:
    def test_dtypes_and_metadata(self):
        table = _table(QUIRKY)
        assert isinstance(table, JobTable)
        assert table.job_id.dtype == np.int64
        assert table.procs.dtype == np.int64
        assert table.submit_time.dtype == np.float64
        assert table.metadata["swf_header"]["MaxProcs"] == "128"
        assert table.metadata["skipped"] == 4
        assert table.max_procs == 128
        # Sorted by (submit, id), like Workload.from_jobs.
        key = list(zip(table.submit_time.tolist(), table.job_id.tolist()))
        assert key == sorted(key)
