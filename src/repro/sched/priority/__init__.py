"""Queue priority policies."""

from repro.sched.priority.policies import (
    PriorityPolicy,
    FCFSPriority,
    SJFPriority,
    LJFPriority,
    XFactorPriority,
    SmallestFirstPriority,
    CompositePriority,
    policy_by_name,
    PRIORITY_POLICIES,
)

__all__ = [
    "PriorityPolicy",
    "FCFSPriority",
    "SJFPriority",
    "LJFPriority",
    "XFactorPriority",
    "SmallestFirstPriority",
    "CompositePriority",
    "policy_by_name",
    "PRIORITY_POLICIES",
]
