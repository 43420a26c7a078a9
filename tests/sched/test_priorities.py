"""Unit tests for the priority policies."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import make_scheduler
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.priority.policies import (
    PRIORITY_POLICIES,
    CompositePriority,
    FCFSPriority,
    LJFPriority,
    SJFPriority,
    SmallestFirstPriority,
    XFactorPriority,
    policy_by_name,
    xfactor,
)
from repro.sim.engine import simulate
from repro.workload.generators import CTCGenerator

from tests.conftest import make_job


class TestXFactor:
    def test_equals_one_at_submission(self):
        job = make_job(1, submit=100.0, estimate=50.0)
        assert xfactor(job, 100.0) == 1.0

    def test_grows_with_wait(self):
        job = make_job(1, submit=0.0, estimate=100.0)
        assert xfactor(job, 100.0) == 2.0
        assert xfactor(job, 300.0) == 4.0

    def test_short_jobs_grow_faster(self):
        short = make_job(1, submit=0.0, runtime=10.0, estimate=10.0)
        long = make_job(2, submit=0.0, runtime=1000.0, estimate=1000.0)
        assert xfactor(short, 100.0) > xfactor(long, 100.0)

    def test_never_below_one(self):
        job = make_job(1, submit=100.0, estimate=50.0)
        assert xfactor(job, 50.0) == 1.0  # clock before submit clamps wait


class TestOrderings:
    def setup_method(self):
        self.early_long = make_job(1, submit=0.0, runtime=1000.0, estimate=1000.0, procs=8)
        self.late_short = make_job(2, submit=50.0, runtime=10.0, estimate=10.0, procs=2)
        self.late_tiny = make_job(3, submit=60.0, runtime=10.0, estimate=10.0, procs=1)
        self.jobs = [self.late_short, self.early_long, self.late_tiny]

    def test_fcfs_orders_by_submission(self):
        ordered = FCFSPriority().sort(self.jobs, now=100.0)
        assert [j.job_id for j in ordered] == [1, 2, 3]

    def test_sjf_orders_by_estimate(self):
        ordered = SJFPriority().sort(self.jobs, now=100.0)
        assert ordered[-1].job_id == 1
        assert ordered[0].submit_time <= ordered[1].submit_time  # tie on estimate

    def test_sjf_breaks_estimate_ties_by_submission(self):
        ordered = SJFPriority().sort([self.late_tiny, self.late_short], now=100.0)
        assert [j.job_id for j in ordered] == [2, 3]

    def test_ljf_reverses_sjf(self):
        ordered = LJFPriority().sort(self.jobs, now=100.0)
        assert ordered[0].job_id == 1

    def test_xfactor_prefers_fast_growing_short_waiters(self):
        ordered = XFactorPriority().sort(self.jobs, now=1000.0)
        # late_short waited 950s on a 10s estimate -> huge xfactor.
        assert ordered[0].job_id == 2

    def test_smallest_first(self):
        ordered = SmallestFirstPriority().sort(self.jobs, now=100.0)
        assert [j.procs for j in ordered] == [1, 2, 8]

    def test_dynamic_flags(self):
        assert not FCFSPriority().is_dynamic
        assert not SJFPriority().is_dynamic
        assert XFactorPriority().is_dynamic


class TestComposite:
    def test_requires_nonzero_weight(self):
        with pytest.raises(ConfigurationError):
            CompositePriority()

    def test_pure_wait_weight_behaves_like_fcfs(self):
        jobs = [make_job(2, submit=50.0), make_job(1, submit=0.0)]
        ordered = CompositePriority(wait_weight=1.0).sort(jobs, now=100.0)
        assert [j.job_id for j in ordered] == [1, 2]

    def test_length_weight_prefers_short(self):
        jobs = [
            make_job(1, runtime=1000.0, estimate=1000.0),
            make_job(2, runtime=10.0, estimate=10.0),
        ]
        ordered = CompositePriority(length_weight=1.0).sort(jobs, now=0.0)
        assert [j.job_id for j in ordered] == [2, 1]

    def test_dynamic_iff_time_dependent(self):
        assert CompositePriority(wait_weight=1.0).is_dynamic
        assert not CompositePriority(length_weight=1.0).is_dynamic


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert isinstance(policy_by_name("sjf"), SJFPriority)
        assert isinstance(policy_by_name("XF"), XFactorPriority)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown priority"):
            policy_by_name("nope")

    def test_registry_contains_paper_policies(self):
        for name in ("FCFS", "SJF", "XF"):
            assert name in PRIORITY_POLICIES


#: Scheduler factories, one per registered policy plus a dynamic composite.
_STATELESS_CASES = {
    **{
        name: (lambda name=name: make_scheduler("cons", name))
        for name in PRIORITY_POLICIES
    },
    "COMP(wait)": lambda: ConservativeScheduler(CompositePriority(wait_weight=1.0)),
}


@pytest.mark.parametrize("case", tuple(_STATELESS_CASES))
def test_policies_are_stateless_and_shared_by_fork(case):
    # The scheduler base shares one policy instance across runs and forks,
    # which is only sound while a policy keeps no per-run state.
    scheduler = _STATELESS_CASES[case]()
    policy = scheduler.priority
    assert scheduler.fork().priority is policy
    before = copy.deepcopy(vars(policy))
    result = simulate(CTCGenerator().generate(150, seed=1), scheduler)
    assert len(result.metrics.records) == 150
    assert vars(policy) == before
