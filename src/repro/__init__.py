"""repro — Characterization of Backfilling Strategies for Parallel Job Scheduling.

A faithful, from-scratch reproduction of Srinivasan, Kettimuthu, Subramani &
Sadayappan (ICPP 2002): a trace-driven parallel job scheduling simulator
with conservative, EASY (aggressive), and selective backfilling; FCFS, SJF
and XFactor priority policies; synthetic CTC/SDSC SP2-like workload models
with controllable user-estimate accuracy; and an experiment harness that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import CTCGenerator, EasyScheduler, SJFPriority, simulate

    workload = CTCGenerator().generate(2000, seed=7)
    result = simulate(workload, EasyScheduler(SJFPriority()))
    print(result.metrics.overall.mean_bounded_slowdown)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro._version import __version__
from repro.errors import (
    AllocationError,
    ConfigurationError,
    ExperimentError,
    ProfileError,
    ReproError,
    SchedulingError,
    SimulationError,
    SWFFormatError,
    WorkloadError,
)
from repro.workload.job import Job, Workload
from repro.workload.swf import read_swf, write_swf
from repro.workload.estimates import (
    ExactEstimate,
    MultiplicativeEstimate,
    UserEstimateModel,
    ClampedEstimate,
)
from repro.workload.transforms import apply_estimates, scale_load, shift_to_zero
from repro.workload.generators import (
    CTCGenerator,
    SDSCGenerator,
    LublinGenerator,
    ctc_model,
    sdsc_model,
)
from repro.cluster.machine import Machine
from repro.sim.engine import Simulator, SimulationResult, simulate
from repro.sim.trace import EventTrace
from repro.sched.base import Scheduler
from repro.sched.profile import Profile
from repro.sched.reservations import AdvanceReservation
from repro.sched.priority.policies import (
    FCFSPriority,
    SJFPriority,
    LJFPriority,
    XFactorPriority,
    SmallestFirstPriority,
    CompositePriority,
    policy_by_name,
)
from repro.sched.validate import (
    validate_conservative_guarantees,
    validate_no_backfill,
    validate_schedule,
)
from repro.workload.stats import characterize, characterization_table
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.lookahead import LookaheadScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.multiqueue import MultiQueueScheduler, QueueClass
from repro.metrics.defs import bounded_slowdown, turnaround_time, wait_time
from repro.metrics.fairness import FairnessReport, fairness_report, start_time_deviations
from repro.grid import (
    GridSimulator,
    GridSite,
    LeastLoadedDispatch,
    RandomDispatch,
    RoundRobinDispatch,
)
from repro.preempt import PreemptiveSimulator, SelectiveSuspensionScheduler
from repro.metrics.categories import Category, EstimateQuality, categorize, estimate_quality
from repro.metrics.collector import CompletedJob, RunMetrics, summarize
from repro.metrics.streaming import StreamingMetrics
# The experiments package imports before the executor: repro.exec.cell
# needs only the experiments.config submodule, which the experiments
# package loads first, while the experiments registry needs names from
# the repro.exec package itself.
from repro.experiments.config import WorkloadSpec
from repro.exec import (
    Cell,
    CellExecutor,
    ExecConfig,
    ExecutionReport,
    ResultStore,
    run_cells,
    set_default_executor,
)
from repro.serve import Session, WhatIfReport

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "WorkloadError",
    "SWFFormatError",
    "SimulationError",
    "SchedulingError",
    "AllocationError",
    "ProfileError",
    "ConfigurationError",
    "ExperimentError",
    # workload
    "Job",
    "Workload",
    "read_swf",
    "write_swf",
    "ExactEstimate",
    "MultiplicativeEstimate",
    "UserEstimateModel",
    "ClampedEstimate",
    "apply_estimates",
    "scale_load",
    "shift_to_zero",
    "CTCGenerator",
    "SDSCGenerator",
    "LublinGenerator",
    "ctc_model",
    "sdsc_model",
    # simulation
    "Machine",
    "Simulator",
    "SimulationResult",
    "simulate",
    "EventTrace",
    # scheduling
    "Scheduler",
    "Profile",
    "AdvanceReservation",
    "FCFSPriority",
    "SJFPriority",
    "LJFPriority",
    "XFactorPriority",
    "SmallestFirstPriority",
    "CompositePriority",
    "policy_by_name",
    "validate_schedule",
    "validate_no_backfill",
    "validate_conservative_guarantees",
    "characterize",
    "characterization_table",
    "FCFSScheduler",
    "ConservativeScheduler",
    "EasyScheduler",
    "SelectiveScheduler",
    "LookaheadScheduler",
    "SlackScheduler",
    "DepthScheduler",
    "MultiQueueScheduler",
    "QueueClass",
    # grid (paper ref. [12])
    "GridSimulator",
    "GridSite",
    "LeastLoadedDispatch",
    "RandomDispatch",
    "RoundRobinDispatch",
    # preemption (paper ref. [6])
    "PreemptiveSimulator",
    "SelectiveSuspensionScheduler",
    # metrics
    "FairnessReport",
    "fairness_report",
    "start_time_deviations",
    "bounded_slowdown",
    "turnaround_time",
    "wait_time",
    "Category",
    "EstimateQuality",
    "categorize",
    "estimate_quality",
    "CompletedJob",
    "RunMetrics",
    "summarize",
    "StreamingMetrics",
    # execution (Cell API)
    "Cell",
    "CellExecutor",
    "ExecConfig",
    "set_default_executor",
    "ExecutionReport",
    "ResultStore",
    "run_cells",
    "WorkloadSpec",
    # serve (live sessions)
    "Session",
    "WhatIfReport",
]
