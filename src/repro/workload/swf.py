"""Standard Workload Format (SWF) reader and writer.

The Parallel Workloads Archive distributes traces — including the CTC SP2 and
SDSC SP2 logs used by the paper — in SWF: a line-oriented text format with
``;``-prefixed header comments followed by one job per line with 18
whitespace-separated numeric fields:

==  =======================  =====================================
 #  field                    notes
==  =======================  =====================================
 1  job number               positive integer
 2  submit time              seconds from log start
 3  wait time                seconds (derived; -1 if unknown)
 4  run time                 seconds of actual execution
 5  allocated processors     -1 if unknown
 6  average CPU time used    seconds; -1 if unknown
 7  used memory              KB per node; -1 if unknown
 8  requested processors     what the user asked for
 9  requested time           the user's runtime estimate (seconds)
10  requested memory         KB per node; -1 if unknown
11  status                   1 completed, 0 failed, 5 cancelled, -1 unknown
12  user id                  -1 if unknown
13  group id                 -1 if unknown
14  executable id            -1 if unknown
15  queue number             -1 if unknown
16  partition number         -1 if unknown
17  preceding job number     -1 if none
18  think time               seconds from preceding job; -1 if none
==  =======================  =====================================

The reader is tolerant of real-archive quirks (missing trailing fields,
``-1`` placeholders, unsorted submit times) and keeps each usable line as
one job.  Jobs with a non-positive runtime or processor count (failed
submissions) are skipped and counted.  A malformed line — too many
fields, or a field that is not a finite number — raises
:class:`~repro.errors.SWFFormatError` naming the line, unless a
``max_jobs`` cutoff stops the reader before it.

There is one reader.  :func:`read_swf_table` tokenizes every data line,
converts all fields to a single ``(n, 18)`` float array in one numpy
pass, applies the usability and clamp rules as column masks, and sorts
the rows by ``(submit, id)`` into a columnar
:class:`~repro.workload.table.JobTable`; :func:`read_swf` is
``read_swf_table(...).to_workload()``.  The line-at-a-time reader it
replaced is frozen in ``tests/oracles/row_pipeline.py`` as the reference
the quirk-parity suites compare against.
"""

from __future__ import annotations

import io
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from repro.errors import SWFFormatError
from repro.workload.job import Job, Workload
from repro.workload.table import JobTable

__all__ = [
    "SWFHeader",
    "read_swf",
    "read_swf_table",
    "write_swf",
    "parse_swf_line",
    "format_swf_line",
]

_N_FIELDS = 18

#: Stand-in for a malformed line: a negative job id, so never usable.
_UNUSABLE = ["-1"] * _N_FIELDS


@dataclass(slots=True)
class SWFHeader:
    """Parsed ``; Key: Value`` header comments from an SWF file.

    Only ``MaxProcs`` is interpreted (it sizes the machine); all pairs are
    preserved verbatim in :attr:`fields` so writers can round-trip them.
    """

    fields: dict[str, str] = field(default_factory=dict)
    comments: list[str] = field(default_factory=list)

    @property
    def max_procs(self) -> int | None:
        raw = self.fields.get("MaxProcs")
        if raw is None:
            return None
        try:
            return int(raw.split()[0])
        except (ValueError, IndexError):
            return None

    def set(self, key: str, value: str) -> None:
        self.fields[key] = value

    def lines(self) -> list[str]:
        out = [f"; {key}: {value}" for key, value in self.fields.items()]
        out.extend(f"; {comment}" for comment in self.comments)
        return out


def parse_swf_line(line: str, *, line_number: int | None = None) -> list[float]:
    """Split one SWF data line into 18 floats, padding missing fields with -1."""
    parts = line.split()
    if not parts:
        raise SWFFormatError("empty data line", line_number=line_number)
    if len(parts) > _N_FIELDS:
        raise SWFFormatError(
            f"expected at most {_N_FIELDS} fields, got {len(parts)}",
            line_number=line_number,
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SWFFormatError(f"non-numeric field: {exc}", line_number=line_number) from exc
    for index, value in enumerate(values):
        if not math.isfinite(value):
            raise SWFFormatError(
                f"field {index + 1} is not finite: {parts[index]}",
                line_number=line_number,
            )
    values.extend([-1.0] * (_N_FIELDS - len(values)))
    return values


def _source_text(source: str | os.PathLike | TextIO) -> tuple[str, str]:
    """Slurp an SWF source (path or open stream) into (text, default name)."""
    if hasattr(source, "read"):
        return source.read(), str(getattr(source, "name", "swf"))
    default_name = os.path.splitext(os.path.basename(os.fspath(source)))[0]
    with open(source, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read(), default_name


def _parse_header_line(header: SWFHeader, line: str) -> None:
    """Fold one ``;``-prefixed comment line into the header."""
    body = line[1:].strip()
    if ":" in body:
        key, _, value = body.partition(":")
        key = key.strip()
        value = value.strip()
        if key and " " not in key:
            header.set(key, value)
            return
    header.comments.append(body)


def _parse_columns(
    text: str, max_jobs: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SWFHeader]:
    """One-pass columnar parse of SWF text.

    Returns ``(values, procs, usable, header)``: the ``(n, 18)`` float
    array of the data lines a line-at-a-time reader reads — missing
    trailing fields padded with ``-1``, stopping after the ``max_jobs``-th
    usable record — with each record's processor count and usability.

    A malformed line stands in as an unusable row while the array is
    built; afterwards the first one before the cutoff is re-parsed with
    :func:`parse_swf_line`, which raises its error with the line number.
    Lines past the cutoff, header comments included, are never read.
    """
    lines = text.split("\n")
    header_lines: list[tuple[int, str]] = []  # (data lines before it, line)
    tokens: list[list[str]] = []
    line_numbers: list[int] = []
    malformed: list[int] = []
    ragged = False
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            header_lines.append((len(tokens), line))
            continue
        parts = line.split()
        n_parts = len(parts)
        if n_parts > _N_FIELDS:
            malformed.append(len(tokens))
            parts = _UNUSABLE
        elif n_parts < _N_FIELDS:
            ragged = True
        tokens.append(parts)
        line_numbers.append(number)

    if ragged:
        tokens = [
            parts if len(parts) == _N_FIELDS else parts + ["-1"] * (_N_FIELDS - len(parts))
            for parts in tokens
        ]
    try:
        values = np.array(list(itertools.chain.from_iterable(tokens)), dtype=np.float64)
    except ValueError:  # a non-numeric field: find its lines one at a time
        rows = []
        for row, parts in enumerate(tokens):
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                malformed.append(row)
                rows.append([-1.0] * _N_FIELDS)
        values = np.array(rows, dtype=np.float64)
    values = values.reshape(len(tokens), _N_FIELDS)
    non_finite = ~np.isfinite(values).all(axis=1)
    if non_finite.any():
        malformed.extend(np.flatnonzero(non_finite).tolist())
        values[non_finite] = -1.0

    job_ids = values[:, 0].astype(np.int64)
    submit = values[:, 1]
    runtime = values[:, 3]
    allocated = values[:, 4].astype(np.int64)
    requested_procs = values[:, 7].astype(np.int64)
    procs = np.where(requested_procs > 0, requested_procs, allocated)
    usable = (procs > 0) & (runtime > 0.0) & (submit >= 0.0) & (job_ids >= 0)

    stop = None  # the first data line never read
    if max_jobs is not None:
        usable_idx = np.flatnonzero(usable)
        # A line-at-a-time reader breaks *after* keeping the max_jobs-th
        # usable job, so with max_jobs == 0 it still keeps one.
        effective = max(max_jobs, 1)
        if len(usable_idx) >= effective:
            stop = int(usable_idx[effective - 1]) + 1
    if malformed:
        first = min(malformed)
        if stop is None or first < stop:
            number = line_numbers[first]
            parse_swf_line(lines[number - 1], line_number=number)  # raises
    header = SWFHeader()
    for before, line in header_lines:
        if stop is None or before < stop:
            _parse_header_line(header, line)
    return values[:stop], procs[:stop], usable[:stop], header


def read_swf(
    source: str | os.PathLike | TextIO,
    *,
    max_procs: int | None = None,
    name: str | None = None,
    max_jobs: int | None = None,
) -> Workload:
    """Read an SWF file (path or open text stream) into a :class:`Workload`.

    ``read_swf_table(...).to_workload()``; the options are
    :func:`read_swf_table`'s.
    """
    table = read_swf_table(source, max_procs=max_procs, name=name, max_jobs=max_jobs)
    return table.to_workload()


def read_swf_table(
    source: str | os.PathLike | TextIO,
    *,
    max_procs: int | None = None,
    name: str | None = None,
    max_jobs: int | None = None,
) -> JobTable:
    """Parse an SWF source into a columnar :class:`JobTable`.

    ``max_procs`` overrides the header's ``MaxProcs``; without either, the
    widest usable job sizes the machine.  Jobs wider than the machine are
    dropped.  ``max_jobs`` stops the reader after that many usable jobs.
    Skipped lines (unusable or too wide) are counted in
    ``metadata["skipped"]`` beside the header fields
    (``metadata["swf_header"]``); ``name`` defaults to the file's stem.
    Rows come out sorted by ``(submit_time, job_id)``.
    """
    text, default_name = _source_text(source)
    values, procs, usable, header = _parse_columns(text, max_jobs)

    machine = max_procs if max_procs is not None else header.max_procs
    if machine is None:
        if not usable.any():
            raise SWFFormatError("no MaxProcs header and no jobs to infer size from")
        machine = int(procs[usable].max())
    # Clamp requests wider than the machine (some archive logs contain them).
    rows = np.flatnonzero(usable & (procs <= machine))
    # Sort before the table validates, so a repeated id is reported at its
    # first repeat in submit order, as a Workload reports it.
    job_ids = values[rows, 0].astype(np.int64)
    order = np.lexsort((job_ids, values[rows, 1]))
    rows = rows[order]
    kept = values[rows]

    columns = {
        "job_id": job_ids[order],
        "procs": procs[rows],
        "user_id": kept[:, 11].astype(np.int64),
        "group_id": kept[:, 12].astype(np.int64),
        "executable": kept[:, 13].astype(np.int64),
        "queue": kept[:, 14].astype(np.int64),
        "partition": kept[:, 15].astype(np.int64),
        "status": kept[:, 10].astype(np.int64),
        "preceding_job": kept[:, 16].astype(np.int64),
        "submit_time": kept[:, 1].copy(),
        "runtime": kept[:, 3].copy(),
        # The user estimate when present, else the runtime (exact estimate).
        "estimate": np.where(kept[:, 8] > 0.0, kept[:, 8], kept[:, 3]),
        "avg_cpu_time": kept[:, 5].copy(),
        "used_memory": kept[:, 6].copy(),
        "requested_memory": kept[:, 9].copy(),
        "think_time": kept[:, 17].copy(),
    }
    return JobTable(
        columns=columns,
        max_procs=int(machine),
        name=name or str(default_name),
        metadata={"skipped": len(values) - len(rows), "swf_header": dict(header.fields)},
    )


def format_swf_line(job: Job, *, wait_time: float = -1.0) -> str:
    """Render one Job as an 18-field SWF data line."""

    def _i(x: float | int) -> str:
        return str(int(x))

    def _f(x: float) -> str:
        if x == int(x):
            return str(int(x))
        return f"{x:.2f}"

    fields = [
        _i(job.job_id),
        _f(job.submit_time),
        _f(wait_time),
        _f(job.runtime),
        _i(job.procs),  # allocated == requested for rigid jobs
        _f(job.avg_cpu_time),
        _f(job.used_memory),
        _i(job.procs),
        _f(job.estimate),
        _f(job.requested_memory),
        _i(job.status),
        _i(job.user_id),
        _i(job.group_id),
        _i(job.executable),
        _i(job.queue),
        _i(job.partition),
        _i(job.preceding_job),
        _f(job.think_time),
    ]
    return " ".join(fields)


def write_swf(
    workload: Workload,
    destination: str | os.PathLike | TextIO,
    *,
    header: SWFHeader | None = None,
) -> None:
    """Write a workload as an SWF file (path or open text stream)."""
    hdr = header or SWFHeader()
    hdr.set("MaxProcs", str(workload.max_procs))
    hdr.set("MaxJobs", str(len(workload)))
    if "Note" not in hdr.fields:
        hdr.set("Note", f"generated by repro from workload '{workload.name}'")

    def _write(fh: TextIO) -> None:
        for line in hdr.lines():
            fh.write(line + "\n")
        for job in workload:
            fh.write(format_swf_line(job) + "\n")

    if hasattr(destination, "write"):
        _write(destination)  # type: ignore[arg-type]
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            _write(fh)


def workload_from_text(text: str, *, max_procs: int | None = None, name: str = "inline") -> Workload:
    """Parse SWF content from an in-memory string (convenience for tests)."""
    return read_swf(io.StringIO(text), max_procs=max_procs, name=name)
