"""Scheduler framework: the paper's subject matter.

* :mod:`repro.sched.profile` — the processor-availability timeline ("2D
  chart" of the paper's Section 2) used to place reservations.
* :mod:`repro.sched.priority` — queue priority policies (FCFS, SJF,
  XFactor, ...).
* :mod:`repro.sched.backfill` — the scheduling disciplines: plain
  space-sharing, conservative backfilling, aggressive (EASY) backfilling,
  and selective backfilling.
"""

from repro.sched.base import Scheduler
from repro.sched.profile import Profile
from repro.sched.reservations import AdvanceReservation
from repro.sched.priority.policies import (
    PriorityPolicy,
    FCFSPriority,
    SJFPriority,
    LJFPriority,
    XFactorPriority,
    SmallestFirstPriority,
    CompositePriority,
)
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.lookahead import LookaheadScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.multiqueue import MultiQueueScheduler, QueueClass

__all__ = [
    "Scheduler",
    "Profile",
    "AdvanceReservation",
    "PriorityPolicy",
    "FCFSPriority",
    "SJFPriority",
    "LJFPriority",
    "XFactorPriority",
    "SmallestFirstPriority",
    "CompositePriority",
    "FCFSScheduler",
    "ConservativeScheduler",
    "EasyScheduler",
    "SelectiveScheduler",
    "LookaheadScheduler",
    "SlackScheduler",
    "DepthScheduler",
    "MultiQueueScheduler",
    "QueueClass",
]
