"""Property suite: the store's binary record is exact, and it rejects a
corrupt record exactly when the row decoder would.

The result store persists a run as one little-endian byte string
(:func:`repro.exec.serialize.metrics_to_columns`): a header, the run's
seven aggregate groups, and the records as typed column buffers.  It
decodes them with one vectorized validation
(:func:`repro.exec.serialize.metrics_from_payload`) and takes the
aggregates from the stored groups instead of re-folding the records.
Four contracts, against the row decoder frozen in
``tests/oracles/row_builders.py`` and the object-path column decoder
frozen in ``tests/oracles/record_objects.py`` (which reads the dict
form the store kept before its records became bytes;
:func:`_as_oracle_payload` rebuilds that dict from the bytes):

* **exact round trip** — decoding what was encoded gives a run whose
  ``metrics_digest`` equals the original's and the row decoder's, for
  simulated runs and for drawn record sets whose untyped SWF fields hold
  NaN, infinities and signed zeros;
* **stored aggregates are the fold's** — on every simulated cell the
  decoded groups equal ``summarize`` of the decoded records by ``repr``,
  and the decoded run equals the live one under ``RunMetrics ==``;
* **the object path's run** — on the same runs, every aggregate (by
  ``repr``, so NaN groups compare), ``utilization``, ``makespan``,
  ``metrics_digest``, ``RunMetrics ==`` and every materialized record,
  field by field, equal the object-path decoder's, and so do those of
  a copy pickled before its records were first read;
* **rejection parity** — each single-value corruption (negative procs,
  a non-finite runtime, a start before submission, a finish off its
  expected value, a truncated buffer, a wrong count) is rejected by the
  codec exactly when the row decoder and the object-path decoder reject
  it, and a rejected record builds no ``Job`` and no ``CompletedJob``;
  the time corruptions are drawn on both sides of the tolerances.  Group
  counts that do not cover the records, which neither reference stores,
  are rejected as well.
"""

import base64
import json
import math
import pickle
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exec import Cell, metrics_digest, simulate_cell
from repro.exec.serialize import (
    metrics_from_payload,
    metrics_to_columns,
    metrics_to_payload,
)
from repro.experiments.config import WorkloadSpec
from repro.metrics.collector import (
    FINISH_ABS_TOL,
    FINISH_REL_TOL,
    START_TOL,
    CompletedJob,
    summarize,
)
from repro.workload.job import Job
from repro.workload.table import FLOAT_COLUMNS, INT_COLUMNS

from tests.oracles.record_objects import metrics_from_payload_objects, record_builds
from tests.oracles.row_builders import metrics_from_row_payload

#: Field order of a row-form record, and where each lives in the columns.
ROW_COLUMNS = ["start_time", "finish_time", *(f.name for f in fields(Job))]
FLOAT_ROWS = ["start_time", "finish_time", *FLOAT_COLUMNS]

#: The stored record's fixed part, written out independently of the codec:
#: n, utilization, makespan; seven group counts; seven groups of five values.
HEAD = struct.Struct("<qdd7q35d")
GROUP_COUNTS = slice(3, 10)


def _as_oracle_payload(blob: bytes) -> dict:
    """The dict the object-path decoder reads, cut from ``blob`` by the
    layout alone: a wrong ``n`` cuts the buffers at the wrong place, and
    the oracle then rejects them as it rejected a wrong count before."""
    n, utilization, makespan = struct.unpack_from("<qdd", blob)
    ints_end = HEAD.size + 8 * len(INT_COLUMNS) * max(n, 0)
    return {
        "n": n,
        "utilization": utilization,
        "makespan": makespan,
        "ints": base64.b64encode(blob[HEAD.size : ints_end]).decode("ascii"),
        "floats": base64.b64encode(blob[ints_end:]).decode("ascii"),
    }


def _oracle_decode(blob: bytes):
    return metrics_from_payload_objects(_as_oracle_payload(blob))


def _through_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _rejects(decode, payload) -> bool:
    try:
        decode(payload)
    except Exception:
        return True
    return False


def _codec_rejects(blob: bytes) -> bool:
    """Whether the codec rejects ``blob``, as the object path does; a
    rejection must come before any record object is built."""
    with record_builds() as built:
        rejected = _rejects(metrics_from_payload, blob)
    assert _rejects(_oracle_decode, blob) == rejected
    if rejected:
        assert built == {Job: 0, CompletedJob: 0}
    return rejected


def _record_fields(record) -> list[str]:
    """A record's values by ``repr``: NaN, signed zero and int-vs-float
    all show."""
    values = [record.start_time, record.finish_time]
    values += [getattr(record.job, f.name) for f in fields(Job)]
    return [repr(value) for value in values]


def _groups(run) -> list[str]:
    return [repr(getattr(run, name)) for name in ("overall", "by_category", "by_estimate_quality")]


def _decode_like_the_object_path(blob: bytes):
    """Decode ``blob`` with the codec and the frozen object path; every
    observable of the two runs must agree, also after the codec's run is
    pickled before anything reads its records.  Returns the codec's run
    and the oracle's, for ``RunMetrics ==`` where no record holds a NaN
    (NaN defeats ``==``, and so does an empty group's NaN once pickled)."""
    decoded = metrics_from_payload(blob)
    oracle = _oracle_decode(blob)
    revived = pickle.loads(pickle.dumps(decoded))
    for name in ("overall", "by_category", "by_estimate_quality", "utilization", "makespan"):
        assert repr(getattr(decoded, name)) == repr(getattr(oracle, name)), name
    assert repr(decoded) == repr(revived) == repr(oracle)
    assert metrics_digest(decoded) == metrics_digest(revived) == metrics_digest(oracle)
    for run in (decoded, revived):
        assert list(map(_record_fields, run.records)) == list(
            map(_record_fields, oracle.records)
        )
    return decoded, oracle


# -- exact round trip -------------------------------------------------------------


@pytest.mark.parametrize(
    "cell",
    [
        Cell(WorkloadSpec("CTC", 200, 3, 0.75, "user"), "easy", "SJF"),
        Cell(WorkloadSpec("SDSC", 150, 1, 1.0, "r4"), "cons", "FCFS"),
        Cell(WorkloadSpec("LUBLIN", 120, 2, 0.5, "exact"), "sel", "XF"),
        Cell(WorkloadSpec("CTC", 1, 1), "easy", "FCFS"),
    ],
    ids=str,
)
def test_simulated_runs_round_trip_exactly(cell):
    metrics = simulate_cell(cell).metrics
    decoded, oracle = _decode_like_the_object_path(metrics_to_columns(metrics))
    assert decoded == oracle
    assert metrics_digest(decoded) == metrics_digest(metrics)
    assert decoded.records == metrics.records
    # The stored groups are the fold's: of the stored records, and the
    # live run's own, empty groups (NaN) included.
    refolded = summarize(
        decoded.table, utilization=decoded.utilization, makespan=decoded.makespan
    )
    assert _groups(decoded) == _groups(refolded) == _groups(metrics)
    assert decoded == metrics
    row = metrics_from_row_payload(_through_json(metrics_to_payload(metrics)))
    assert metrics_digest(row) == metrics_digest(decoded)


def test_an_empty_run_round_trips():
    metrics = summarize([], utilization=0.0, makespan=0.0)
    decoded, oracle = _decode_like_the_object_path(metrics_to_columns(metrics))
    assert decoded == oracle == metrics
    assert metrics_digest(decoded) == metrics_digest(metrics)


untyped = st.one_of(
    st.just(-1.0), st.floats(allow_nan=True, allow_infinity=True)
)
int64s = st.integers(-(2**63), 2**63 - 1)
times = st.floats(0.0, 1e9)
durations = st.floats(1e-3, 1e6)


@st.composite
def records(draw):
    """A valid completed record; the SWF-only fields are arbitrary."""
    runtime, estimate = draw(durations), draw(durations)
    job = Job(
        job_id=draw(st.integers(0, 2**63 - 1)),
        submit_time=draw(times),
        runtime=runtime,
        estimate=estimate,
        procs=draw(st.integers(1, 2**63 - 1)),
        user_id=draw(int64s),
        group_id=draw(int64s),
        executable=draw(int64s),
        queue=draw(int64s),
        partition=draw(int64s),
        status=draw(int64s),
        avg_cpu_time=draw(untyped),
        used_memory=draw(untyped),
        requested_memory=draw(untyped),
        preceding_job=draw(int64s),
        think_time=draw(untyped),
    )
    start = job.submit_time + draw(st.floats(0.0, 1e6))
    return CompletedJob(job, start, start + job.effective_runtime)


@settings(max_examples=60, deadline=None)
@given(st.lists(records(), max_size=12), st.floats(), st.floats())
def test_drawn_record_sets_round_trip_exactly(recs, utilization, makespan):
    metrics = summarize(recs, utilization=utilization, makespan=makespan)
    decoded, _ = _decode_like_the_object_path(metrics_to_columns(metrics))
    assert _groups(decoded) == _groups(metrics)
    assert metrics_digest(decoded) == metrics_digest(metrics)
    row = metrics_from_row_payload(_through_json(metrics_to_payload(metrics)))
    assert metrics_digest(row) == metrics_digest(decoded)


# -- rejection parity -------------------------------------------------------------


@pytest.fixture(scope="module")
def base_metrics():
    cell = Cell(WorkloadSpec("CTC", 40, 5, 0.75, "user"), "easy", "FCFS")
    return simulate_cell(cell).metrics


def _columns_with(blob: bytes, field: str, row: int, value) -> bytes:
    """``blob`` with one value of one column replaced."""
    (n,) = struct.unpack_from("<q", blob)
    ints_at = HEAD.size
    floats_at = ints_at + 8 * len(INT_COLUMNS) * n
    if field in INT_COLUMNS:
        at, rows, dtype = ints_at, list(INT_COLUMNS), "<i8"
    else:
        at, rows, dtype = floats_at, FLOAT_ROWS, "<f8"
    array = np.frombuffer(blob, dtype, len(rows) * n, at).reshape(len(rows), n).copy()
    array[rows.index(field), row] = value
    return blob[:at] + array.tobytes() + blob[at + array.nbytes :]


def _rows_with(payload: dict, field: str, row: int, value) -> dict:
    """The row-form ``payload`` with the same value replaced."""
    records = [list(record) for record in payload["records"]]
    records[row][ROW_COLUMNS.index(field)] = value
    return {**payload, "records": records}


def _assert_parity(metrics, field, row, value_of):
    """Corrupt one value in both forms; both decoders must agree."""
    row %= len(metrics.records)
    record = metrics.records[row]
    value = value_of(record)
    columns = _columns_with(metrics_to_columns(metrics), field, row, value)
    rows = _rows_with(_through_json(metrics_to_payload(metrics)), field, row, value)
    expected = _rejects(metrics_from_row_payload, rows)
    assert _codec_rejects(columns) == expected
    return expected


@settings(max_examples=40, deadline=None)
@given(row=st.integers(0, 10**6), procs=st.integers(-(2**63), 4))
def test_procs_corruption_parity(base_metrics, row, procs):
    _assert_parity(base_metrics, "procs", row, lambda r: procs)


@settings(max_examples=40, deadline=None)
@given(
    row=st.integers(0, 10**6),
    field=st.sampled_from(["runtime", "estimate", "submit_time"]),
    value=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]),
)
def test_non_finite_or_non_positive_time_parity(base_metrics, row, field, value):
    _assert_parity(base_metrics, field, row, lambda r: value)


#: Offsets straddling the tolerances, plus arbitrary ones; the exact
#: boundaries are pinned by test_the_time_checks_are_decided_by_the_tolerances.
offsets = st.one_of(
    st.sampled_from(
        [0.0, START_TOL, 2 * START_TOL, START_TOL / 2, FINISH_ABS_TOL,
         FINISH_ABS_TOL * 1.5, 1.0, math.nan, math.inf]
    ),
    st.floats(-1e-3, 1e-3),
    st.floats(allow_nan=False),
)


@settings(max_examples=80, deadline=None)
@given(row=st.integers(0, 10**6), offset=offsets)
def test_start_before_submission_parity(base_metrics, row, offset):
    _assert_parity(
        base_metrics, "start_time", row, lambda r: r.job.submit_time - offset
    )


@settings(max_examples=80, deadline=None)
@given(row=st.integers(0, 10**6), offset=offsets, sign=st.sampled_from([1.0, -1.0]))
def test_finish_off_expected_parity(base_metrics, row, offset, sign):
    _assert_parity(
        base_metrics,
        "finish_time",
        row,
        lambda r: r.start_time + r.job.effective_runtime + sign * offset,
    )


def test_the_time_checks_are_decided_by_the_tolerances(base_metrics):
    # Both sides of each boundary occur, so parity is not vacuous.
    verdicts = [
        _assert_parity(base_metrics, "start_time", 3, lambda r: r.job.submit_time - d)
        for d in (START_TOL / 2, 2 * START_TOL)
    ]
    assert verdicts == [False, True]
    record = base_metrics.records[3]
    expected = record.start_time + record.job.effective_runtime
    bound = max(FINISH_ABS_TOL, FINISH_REL_TOL * expected)
    verdicts = [
        _assert_parity(base_metrics, "finish_time", 3, lambda r: expected + d)
        for d in (bound / 2, bound * 1.5)
    ]
    assert verdicts == [False, True]
    # math.isclose takes the larger tolerance, np.isclose their sum: an
    # offset between the two is rejected.
    between = bound + min(FINISH_ABS_TOL, FINISH_REL_TOL * expected) / 2
    assert _assert_parity(base_metrics, "finish_time", 3, lambda r: expected + between)


@settings(max_examples=30, deadline=None)
@given(cut=st.integers(1, 200))
def test_truncated_buffer_is_rejected_like_a_truncated_row(base_metrics, cut):
    blob = metrics_to_columns(base_metrics)
    blob = blob[: max(len(blob) - cut, HEAD.size)]
    rows = _through_json(metrics_to_payload(base_metrics))
    rows["records"][-1] = rows["records"][-1][:-1]
    assert _rejects(metrics_from_row_payload, rows)
    assert _codec_rejects(blob)


@pytest.mark.parametrize("keep", [0, 1, 8, 24, 100, 359])
def test_a_record_cut_inside_its_header_is_rejected(base_metrics, keep):
    with record_builds() as built:
        assert _rejects(metrics_from_payload, metrics_to_columns(base_metrics)[:keep])
    assert built == {Job: 0, CompletedJob: 0}


@settings(max_examples=30, deadline=None)
@given(n=st.one_of(st.integers(-5, 100), st.sampled_from([-(2**63), 2**63 - 1])))
def test_a_wrong_count_is_rejected_like_an_overlong_row(base_metrics, n):
    # The row form carries no count; its equivalent of a count that
    # disagrees with the data is a record longer than the column list.
    blob = metrics_to_columns(base_metrics)
    assume(n != len(base_metrics.records))
    blob = struct.pack("<q", n) + blob[8:]
    rows = _through_json(metrics_to_payload(base_metrics))
    rows["records"][0] = rows["records"][0] + [0]
    assert _rejects(metrics_from_row_payload, rows)
    assert _codec_rejects(blob)


@settings(max_examples=40, deadline=None)
@given(group=st.integers(0, 6), delta=st.sampled_from([-40, -2, -1, 1, 2, 2**40]))
def test_group_counts_that_do_not_cover_the_records_are_rejected(base_metrics, group, delta):
    # The references re-fold the records and store no groups, so this
    # check is the codec's own: the overall count must equal n, and the
    # category and the quality counts must each sum to it.
    head = list(HEAD.unpack_from(metrics_to_columns(base_metrics)))
    counts = head[GROUP_COUNTS]
    assert counts[0] == len(base_metrics.records) == sum(counts[1:5]) == sum(counts[5:])
    head[GROUP_COUNTS.start + group] += delta
    blob = HEAD.pack(*head) + metrics_to_columns(base_metrics)[HEAD.size :]
    with record_builds() as built:
        assert _rejects(metrics_from_payload, blob)
    assert built == {Job: 0, CompletedJob: 0}
    assert not _rejects(_oracle_decode, blob)


def test_a_negative_group_count_is_rejected_though_the_counts_sum(base_metrics):
    blob = metrics_to_columns(base_metrics)
    head = list(HEAD.unpack_from(blob))
    sn, sw = GROUP_COUNTS.start + 1, GROUP_COUNTS.start + 2
    head[sn], head[sw] = -1, head[sw] + head[sn] + 1
    assert _rejects(metrics_from_payload, HEAD.pack(*head) + blob[HEAD.size :])


def test_a_run_whose_groups_do_not_cover_its_records_is_not_encoded(base_metrics):
    # A streaming run keeps only its watched records beside the whole
    # run's aggregates; storing it would write counts the decoder rejects.
    partial = replace(base_metrics, records=base_metrics.records[:-1])
    with pytest.raises(ValueError, match="summarizes 40 jobs but holds 39"):
        metrics_to_columns(partial)


def test_stored_metrics_must_be_bytes(base_metrics):
    blob = metrics_to_columns(base_metrics)
    for wrong in (blob.decode("latin-1"), bytearray(blob), memoryview(blob), None):
        assert _rejects(metrics_from_payload, wrong)
