"""Post-hoc schedule validation.

The simulator already fails fast on inconsistent state, but a *schedule*
(workload + per-job start times) can also come from elsewhere — another
simulator, a production log, a regression fixture.  This module checks
such a schedule against the ground rules of space-shared scheduling and,
optionally, against discipline-specific properties:

* :func:`validate_schedule` — machine-level feasibility: every job runs
  exactly its effective runtime, never before submission, and the machine
  is never oversubscribed at any instant (checked by sweep-line over the
  start/finish events);
* :func:`validate_no_backfill` — strict in-order service: jobs start in
  submission order (the NOBF discipline's defining property);
* :func:`validate_conservative_guarantees` — no job starts later than a
  supplied map of per-job guarantees (for the never-move-later
  conservative variants).

Each validator returns a list of human-readable violation strings (empty
= valid), so callers can assert emptiness in tests or print a report.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.metrics.collector import CompletedJob
from repro.sched.tol import EPS_DUE as _EPS
from repro.workload.job import Workload

__all__ = [
    "validate_schedule",
    "validate_no_backfill",
    "validate_conservative_guarantees",
]


def validate_schedule(
    workload: Workload,
    records: Iterable[CompletedJob],
) -> list[str]:
    """Machine-level feasibility of a completed schedule (see module docs)."""
    violations: list[str] = []
    records = list(records)

    by_id = {job.job_id: job for job in workload}
    seen: set[int] = set()
    for record in records:
        job_id = record.job.job_id
        if job_id not in by_id:
            violations.append(f"job {job_id}: not part of the workload")
            continue
        if job_id in seen:
            violations.append(f"job {job_id}: completed more than once")
            continue
        seen.add(job_id)
        # Check against the workload's authoritative job definition, not
        # the record's embedded copy — a forged record must not be able to
        # launder a different submit time or runtime past the validator.
        job = by_id[job_id]
        if record.start_time < job.submit_time - _EPS:
            violations.append(
                f"job {job_id}: started at {record.start_time} before "
                f"submission at {job.submit_time}"
            )
        expected = record.start_time + job.effective_runtime
        if not math.isclose(record.finish_time, expected, rel_tol=1e-9, abs_tol=1e-3):
            violations.append(
                f"job {job_id}: finish {record.finish_time} != start + "
                f"effective runtime ({expected})"
            )

    missing = set(by_id) - seen
    if missing:
        violations.append(
            f"{len(missing)} jobs never completed (e.g. {sorted(missing)[:5]})"
        )

    # Sweep-line capacity check: +procs at start, -procs at finish;
    # finishes sort before starts at equal timestamps.
    events: list[tuple[float, int, int]] = []
    for record in records:
        events.append((record.start_time, 1, record.job.procs))
        events.append((record.finish_time, 0, record.job.procs))
    events.sort()
    busy = 0
    for time, kind, procs in events:
        busy += procs if kind == 1 else -procs
        if busy > workload.max_procs:
            violations.append(
                f"machine oversubscribed at t={time}: {busy} > {workload.max_procs}"
            )
            break
    return violations


def validate_no_backfill(records: Iterable[CompletedJob]) -> list[str]:
    """Jobs must start in submission order (ties allowed either way)."""
    violations: list[str] = []
    ordered = sorted(records, key=lambda r: (r.job.submit_time, r.job.job_id))
    last_start = -math.inf
    last_id = None
    for record in ordered:
        if record.start_time < last_start - _EPS:
            violations.append(
                f"job {record.job.job_id} (submitted later) started at "
                f"{record.start_time}, before job {last_id} at {last_start}"
            )
        last_start = max(last_start, record.start_time)
        last_id = record.job.job_id
    return violations


def validate_conservative_guarantees(
    records: Iterable[CompletedJob],
    guarantees: Mapping[int, float],
) -> list[str]:
    """No job may start after its recorded start-time guarantee."""
    violations: list[str] = []
    for record in records:
        guarantee = guarantees.get(record.job.job_id)
        if guarantee is None:
            violations.append(f"job {record.job.job_id}: no recorded guarantee")
            continue
        if record.start_time > guarantee + _EPS:
            violations.append(
                f"job {record.job.job_id}: started at {record.start_time}, "
                f"{record.start_time - guarantee:.1f}s after its guarantee "
                f"({guarantee})"
            )
    return violations
