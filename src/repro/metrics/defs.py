"""Per-job scheduling metrics as defined in the paper (Section 2).

* wait time       = start - submit
* turnaround time = finish - submit
* slowdown        = turnaround / runtime
* bounded slowdown = (wait + max(runtime, T)) / max(runtime, T), T = 10 s

The 10-second bound "limits the influence of very short jobs on the metric"
(the OCR capture reads "1 seconds"; 10 s is the standard value from
Mu'alem & Feitelson 2001 which the paper follows — see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "BOUNDED_SLOWDOWN_THRESHOLD",
    "START_TOL",
    "FINISH_REL_TOL",
    "FINISH_ABS_TOL",
    "wait_time",
    "turnaround_time",
    "slowdown",
    "bounded_slowdown",
    "bounded_slowdowns",
]

#: The bound T in the bounded-slowdown definition, in seconds.
BOUNDED_SLOWDOWN_THRESHOLD = 10.0

#: Tolerances on recorded times.  They are metric-side float tolerances,
#: not scheduling rules (those are in ``repro.sched.tol``); the record
#: checks (``CompletedJob.__post_init__`` and ``RecordTable``'s column
#: form), the schedule validator and the machine's accounting read them
#: by name, so no check can drift from another.
#:
#: A recorded time may precede the one it must follow (a start its
#: submission, a finish its start, the machine clock its last event) by
#: this much.
START_TOL = 1e-9
#: ``math.isclose`` tolerances of a finish against start + effective
#: runtime; ``FINISH_REL_TOL`` also bounds the rounding of a ratio of
#: recorded times (the machine's utilization) above 1.
FINISH_REL_TOL = 1e-9
FINISH_ABS_TOL = 1e-6


def _check(submit: float, start: float, finish: float) -> None:
    if start < submit - START_TOL:
        raise SimulationError(f"job started ({start}) before submission ({submit})")
    if finish < start - START_TOL:
        raise SimulationError(f"job finished ({finish}) before starting ({start})")


def wait_time(submit: float, start: float) -> float:
    """Seconds spent in the wait queue."""
    if start < submit - START_TOL:
        raise SimulationError(f"job started ({start}) before submission ({submit})")
    return max(start - submit, 0.0)


def turnaround_time(submit: float, finish: float) -> float:
    """Seconds from submission to completion (the user-visible latency)."""
    if finish < submit - START_TOL:
        raise SimulationError(f"job finished ({finish}) before submission ({submit})")
    return max(finish - submit, 0.0)


def slowdown(submit: float, start: float, finish: float) -> float:
    """Unbounded slowdown: turnaround / runtime.

    Diverges for very short jobs — the paper (and this library's reports)
    use :func:`bounded_slowdown` instead; this is provided for completeness.
    """
    _check(submit, start, finish)
    runtime = finish - start
    if runtime <= 0:
        raise SimulationError("slowdown undefined for zero-runtime job")
    return (finish - submit) / runtime


def bounded_slowdown(
    submit: float,
    start: float,
    finish: float,
    threshold: float = BOUNDED_SLOWDOWN_THRESHOLD,
) -> float:
    """Bounded slowdown: ``(wait + max(runtime, T)) / max(runtime, T)``.

    Always >= 1; equals 1 for a job that starts the moment it is submitted.
    """
    _check(submit, start, finish)
    if threshold <= 0:
        raise SimulationError(f"bounded-slowdown threshold must be > 0, got {threshold}")
    runtime = max(finish - start, 0.0)
    denom = max(runtime, threshold)
    return (wait_time(submit, start) + denom) / denom


def bounded_slowdowns(submit: np.ndarray, start: np.ndarray, finish: np.ndarray) -> np.ndarray:
    """Column form of :func:`bounded_slowdown` over float64 arrays of
    records already checked: elementwise IEEE operations, so each value
    equals the scalar's for the same record."""
    waits = np.maximum(start - submit, 0.0)
    elapsed = np.maximum(finish - start, 0.0)
    denom = np.maximum(elapsed, BOUNDED_SLOWDOWN_THRESHOLD)
    return (waits + denom) / denom
