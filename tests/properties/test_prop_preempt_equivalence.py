"""Differential tests: the shipped preemptive engine vs the frozen one.

The engine builds one ``RunningView`` per start or resume and carries
each job's executed time as a running total instead of re-summing its
interval history every decision round; the policy filters suspension
victims before it sorts them, walks phase 1 by index, and the waiting
pool is keyed by job id.  None of that may change a schedule, so
``tests/oracles/preempt.py`` freezes the previous engine and policy, and
every shipped run must reproduce its frozen original exactly — per-job
intervals, ``total_suspensions``, the ``metrics_digest`` of the
``RunMetrics``, its aggregates (``summarize_preemptive`` is frozen too)
and, round by round, the waiting and running job ids the policy was
handed, in order — under FCFS, SJF and XF, suspension factors
1, 2 and 4, with and without a suspension overhead, at a short and a long
decision interval, and with ``min_wait`` zero and positive.

With an overhead, two jobs can suspend each other faster than either
progresses, and the run never ends (``MANY_RESUMES`` under FCFS, factor 1
and ``min_wait`` 20 does).  Both sides are cut after ``MAX_ROUNDS``
decision rounds, and the rounds up to the cut must match.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import repro.preempt as shipped
from repro.exec.serialize import metrics_digest
from repro.sched.priority.policies import FCFSPriority, SJFPriority, XFactorPriority
from repro.workload.job import Job, Workload

from tests.oracles import preempt as frozen
from tests.properties.test_prop_grid_preempt import SITE_PROCS, workloads

PRIORITIES = {"FCFS": FCFSPriority, "SJF": SJFPriority, "XF": XFactorPriority}
FACTORS = (1.0, 2.0, 4.0)
MAX_ROUNDS = 2_000

#: Jobs 1 and 2 arrive together and, under XF with factor 1, suspend each
#: other round after round; by job 3's arrival each has run several
#: times, so the pseudo-releases that place job 3 need the work of every
#: earlier run, not only the latest.
MANY_RESUMES = Workload(
    (
        Job(job_id=1, submit_time=0.0, runtime=92.0, estimate=92.0, procs=6),
        Job(job_id=2, submit_time=0.0, runtime=46.0, estimate=92.0, procs=10),
        Job(job_id=3, submit_time=58.0, runtime=31.0, estimate=62.0, procs=3),
    ),
    max_procs=SITE_PROCS,
    name="many-resumes",
)

#: Jobs 1 and 2 share submit time and estimate, so their expansion factors
#: are equal floats: under factor 1 the waiting one may suspend the running
#: one, which then frees exactly the processors the head needs.
TIED = Workload(
    tuple(
        Job(job_id=job_id, submit_time=0.0, runtime=100.0, estimate=100.0,
            procs=SITE_PROCS)
        for job_id in (1, 2)
    ),
    max_procs=SITE_PROCS,
    name="tied-xfactor",
)


class _Livelock(Exception):
    pass


def _outcome(module, wl, priority, factor, overhead, interval, min_wait):
    rounds = []

    class Recording(module.SelectiveSuspensionScheduler):
        def decide(self, now, waiting, running, free_procs):
            if len(rounds) == MAX_ROUNDS:
                raise _Livelock
            rounds.append((
                now,
                [job.job_id for job in waiting],
                [view.job.job_id for view in running],
                free_procs,
            ))
            return super().decide(now, waiting, running, free_procs)

    simulator = module.PreemptiveSimulator(
        wl,
        Recording(
            PRIORITIES[priority](), suspension_factor=factor, min_wait=min_wait
        ),
        decision_interval=interval,
        suspension_overhead=overhead,
    )
    try:
        result = simulator.run()
    except _Livelock:
        return None, rounds
    intervals = {r.job.job_id: r.intervals for r in result.records}
    # The digest covers utilization and makespan; the aggregates are
    # compared by repr, so NaN groups (an empty category) compare too.
    summary = (
        intervals,
        result.total_suspensions,
        metrics_digest(result.metrics),
        repr(result.metrics),
    )
    return summary, rounds


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("priority", sorted(PRIORITIES))
@given(
    wl=workloads(),
    overhead=st.sampled_from([0.0, 7.5]),
    interval=st.sampled_from([15.0, 300.0]),
    min_wait=st.sampled_from([0.0, 20.0]),
)
@example(wl=MANY_RESUMES, overhead=0.0, interval=15.0, min_wait=0.0)
@example(wl=MANY_RESUMES, overhead=7.5, interval=15.0, min_wait=20.0)
@example(wl=TIED, overhead=0.0, interval=15.0, min_wait=0.0)
@settings(max_examples=60, deadline=None)
def test_shipped_engine_equals_frozen(
    priority, factor, wl, overhead, interval, min_wait
):
    args = (wl, priority, factor, overhead, interval, min_wait)
    assert _outcome(shipped, *args) == _outcome(frozen, *args)
