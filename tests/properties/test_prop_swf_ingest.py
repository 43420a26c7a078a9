"""Property suite: the one SWF reader ≡ the frozen line-at-a-time reader.

Each example is an SWF text with the archive quirks the reader must
tolerate — ragged lines, ``-1`` placeholders, unusable rows, unsorted
submits, jobs wider than the machine, repeated ids, an optional header
at a drawn position — plus at most one malformed line (too many fields
or a non-numeric token) and a drawn ``max_jobs``.  ``read_swf`` must
return what ``tests/oracles/row_pipeline.py:read_swf_rows`` returns
(jobs, machine, name and metadata) or raise the same exception type with
the same message.  Non-finite tokens are left out: there the two differ
on purpose, and ``tests/workload/test_swf_columnar.py`` pins them.
"""

import io

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.errors import WorkloadError
from repro.workload.swf import read_swf

from tests.oracles.row_pipeline import read_swf_rows

HEADER = ["; MaxProcs: 64", "; Note: drawn header"]

numbers = st.one_of(
    st.integers(min_value=-1, max_value=5000),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def fields(draw):
    """One data line's tokens: 18 drawn fields, maybe cut short."""
    values = [
        draw(st.integers(min_value=-1, max_value=200)),  # id: repeats happen
        draw(numbers),  # submit
        -1,
        draw(numbers),  # runtime
        draw(st.integers(min_value=-1, max_value=80)),  # allocated procs
        draw(numbers),
        draw(numbers),
        draw(st.integers(min_value=-1, max_value=80)),  # requested procs
        draw(numbers),  # requested time
        *draw(st.lists(numbers, min_size=9, max_size=9)),
    ]
    width = draw(st.sampled_from([18] * 16 + list(range(1, 18))))
    return [str(value) for value in values[:width]]


@st.composite
def swf_texts(draw):
    rows = draw(st.lists(fields(), max_size=25))
    if rows and draw(st.booleans()):
        tokens = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        if draw(st.booleans()):
            tokens[:] = (tokens + ["1"] * 19)[:19]  # too many fields
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = "x1"  # non-numeric
    lines = [" ".join(tokens) for tokens in rows]
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines[at:at] = HEADER
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    max_jobs = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
    return "\n".join(lines) + "\n", max_jobs


def _outcome(read, text, max_jobs):
    try:
        workload = read(io.StringIO(text), name="prop", max_jobs=max_jobs)
    except WorkloadError as exc:
        return type(exc), str(exc)
    return workload.jobs, workload.max_procs, workload.name, workload.metadata


@settings(deadline=None)
@given(swf_texts())
# Ids 5 and 7 repeat; the first repeat in submit order is 7.
@example(("; MaxProcs: 4\n5 100 -1 10 1\n7 50 -1 10 1\n5 200 -1 10 1\n7 60 -1 10 1\n", None))
# A header past the max_jobs cutoff is never read.
@example(("1 0 -1 10 4\n2 5 -1 10 4\n; MaxProcs: 64\n", 1))
# A malformed line hidden behind the cutoff, and one just before it.
@example(("1 0 -1 10 1\n0 x -1 10 1\n2 5 -1 10 1\n", 1))
@example(("1 0 -1 10 1\n0 x -1 10 1\n2 5 -1 10 1\n", 2))
def test_read_swf_matches_the_row_reader(case):
    text, max_jobs = case
    assert _outcome(read_swf, text, max_jobs) == _outcome(read_swf_rows, text, max_jobs)
