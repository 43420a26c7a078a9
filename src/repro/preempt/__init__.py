"""Preemptive (suspension-based) scheduling.

Reproduces the core mechanism of the paper's reference [6] — Kettimuthu,
Subramani, Srinivasan, Gopalsamy & Sadayappan, *Selective preemption
strategies for parallel job scheduling* (ICPP 2002): a waiting job whose
expansion factor has grown far beyond that of some running jobs may
*suspend* them, take their processors, and let them resume later.

The subpackage keeps its own event loop, on the shared
:class:`~repro.sim.events.EventQueue`, because preemption breaks the
run-to-completion assumption of :mod:`repro.sim`: the policy decides once
per batch of same-instant events, over the whole waiting and running
sets, rather than per hook; jobs execute in intervals, so a suspension
invalidates a finish already pushed; and the metric records carry the
suspension history.
"""

from repro.preempt.records import PreemptedJob, summarize_preemptive
from repro.preempt.scheduler import (
    RunningView,
    SelectiveSuspensionScheduler,
    SuspendDecision,
)
from repro.preempt.engine import PreemptiveSimulator, PreemptiveResult

__all__ = [
    "PreemptedJob",
    "summarize_preemptive",
    "RunningView",
    "SelectiveSuspensionScheduler",
    "SuspendDecision",
    "PreemptiveSimulator",
    "PreemptiveResult",
]
