"""Property suite: the store's column codec is exact, and it rejects a
corrupt record exactly when the row decoder would.

The result store persists a run as typed columns
(:func:`repro.exec.serialize.metrics_to_columns`) and decodes them with
one vectorized validation (:func:`repro.exec.serialize.metrics_from_payload`)
instead of building a validated ``Job`` and ``CompletedJob`` per record.
Three contracts, against the row decoder frozen in
``tests/oracles/row_builders.py`` and the object-path column decoder
frozen in ``tests/oracles/record_objects.py``:

* **exact round trip** — decoding what was encoded (through JSON, as the
  store does) gives a run whose ``metrics_digest`` equals the original's
  and the row decoder's, for simulated runs and for drawn record sets
  whose untyped SWF fields hold NaN, infinities and signed zeros;
* **the object path's run** — on the same runs, every aggregate (by
  ``repr``, so NaN groups compare), ``utilization``, ``makespan``,
  ``metrics_digest``, ``RunMetrics ==`` and every materialized record,
  field by field, equal the object-path decoder's, and so do those of
  a copy pickled before its records were first read;
* **rejection parity** — each single-value corruption (negative procs,
  a non-finite runtime, a start before submission, a finish off its
  expected value, a truncated buffer, a wrong count) is rejected by the
  codec exactly when the row decoder and the object-path decoder reject
  it, and a rejected payload builds no ``Job`` and no ``CompletedJob``;
  the time corruptions are drawn on both sides of the tolerances.
"""

import base64
import json
import math
import pickle
from dataclasses import fields

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


def _through_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _rejects(decode, payload) -> bool:
    try:
        decode(payload)
    except Exception:
        return True
    return False


def _codec_rejects(payload) -> bool:
    """Whether the codec rejects ``payload``, as the object path does; a
    rejection must come before any record object is built."""
    with record_builds() as built:
        rejected = _rejects(metrics_from_payload, payload)
    assert _rejects(metrics_from_payload_objects, payload) == rejected
    if rejected:
        assert built == {Job: 0, CompletedJob: 0}
    return rejected


def _record_fields(record) -> list[str]:
    """A record's values by ``repr``: NaN, signed zero and int-vs-float
    all show."""
    values = [record.start_time, record.finish_time]
    values += [getattr(record.job, f.name) for f in fields(Job)]
    return [repr(value) for value in values]


def _decode_like_the_object_path(payload: dict):
    """Decode ``payload`` with the codec and the frozen object path; every
    observable of the two runs must agree, also after the codec's run is
    pickled before anything reads its records.  Returns the codec's run
    and the oracle's, for ``RunMetrics ==`` where no record holds a NaN
    (NaN defeats ``==``, and so does an empty group's NaN once pickled)."""
    decoded = metrics_from_payload(payload)
    oracle = metrics_from_payload_objects(payload)
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
    decoded, oracle = _decode_like_the_object_path(
        _through_json(metrics_to_columns(metrics))
    )
    assert decoded == oracle
    assert metrics_digest(decoded) == metrics_digest(metrics)
    assert decoded.records == metrics.records
    row = metrics_from_row_payload(_through_json(metrics_to_payload(metrics)))
    assert metrics_digest(row) == metrics_digest(decoded)


def test_an_empty_run_round_trips():
    metrics = summarize([], utilization=0.0, makespan=0.0)
    decoded, oracle = _decode_like_the_object_path(
        _through_json(metrics_to_columns(metrics))
    )
    assert decoded == oracle
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
    decoded, _ = _decode_like_the_object_path(_through_json(metrics_to_columns(metrics)))
    assert metrics_digest(decoded) == metrics_digest(metrics)
    row = metrics_from_row_payload(_through_json(metrics_to_payload(metrics)))
    assert metrics_digest(row) == metrics_digest(decoded)


# -- rejection parity -------------------------------------------------------------


@pytest.fixture(scope="module")
def base_metrics():
    cell = Cell(WorkloadSpec("CTC", 40, 5, 0.75, "user"), "easy", "FCFS")
    return simulate_cell(cell).metrics


def _columns_with(payload: dict, field: str, row: int, value) -> dict:
    """``payload`` with one value of one column replaced."""
    payload = dict(payload)
    if field in INT_COLUMNS:
        key, rows, dtype = "ints", list(INT_COLUMNS), "<i8"
    else:
        key, rows, dtype = "floats", FLOAT_ROWS, "<f8"
    array = np.frombuffer(base64.b64decode(payload[key]), dtype=dtype)
    array = array.reshape(len(rows), payload["n"]).copy()
    array[rows.index(field), row] = value
    payload[key] = base64.b64encode(array.tobytes()).decode("ascii")
    return payload


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
    columns = _columns_with(_through_json(metrics_to_columns(metrics)), field, row, value)
    rows = _rows_with(_through_json(metrics_to_payload(metrics)), field, row, value)
    expected = _rejects(metrics_from_row_payload, rows)
    assert _codec_rejects(_through_json(columns)) == expected
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
@given(key=st.sampled_from(["ints", "floats"]), cut=st.integers(1, 200))
def test_truncated_buffer_is_rejected_like_a_truncated_row(base_metrics, key, cut):
    payload = _through_json(metrics_to_columns(base_metrics))
    raw = base64.b64decode(payload[key])
    payload[key] = base64.b64encode(raw[: max(len(raw) - cut, 0)]).decode("ascii")
    rows = _through_json(metrics_to_payload(base_metrics))
    rows["records"][-1] = rows["records"][-1][:-1]
    assert _rejects(metrics_from_row_payload, rows)
    assert _codec_rejects(payload)


@settings(max_examples=30, deadline=None)
@given(n=st.one_of(st.integers(-5, 100), st.just(True), st.just(40.0), st.just("40")))
def test_a_wrong_count_is_rejected_like_an_overlong_row(base_metrics, n):
    # The row form carries no count; its equivalent of a count that
    # disagrees with the data is a record longer than the column list.
    payload = _through_json(metrics_to_columns(base_metrics))
    assume(not (n == payload["n"] and type(n) is int))
    payload["n"] = n
    rows = _through_json(metrics_to_payload(base_metrics))
    rows["records"][0] = rows["records"][0] + [0]
    assert _rejects(metrics_from_row_payload, rows)
    assert _codec_rejects(payload)
