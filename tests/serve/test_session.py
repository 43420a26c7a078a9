"""Session behavior: live advance, forked queries, snapshots, and the
batch-boundary/monotone-time invariants the serve layer enforces."""

import math

import pytest

from repro.errors import SimulationError
from repro.exec.serialize import metrics_digest
from repro.experiments.runner import make_scheduler
from repro.serve import Session
from repro.serve.session import _MAX_JOB_ID
from repro.sim.engine import Simulator, simulate
from repro.workload.job import Job, Workload
from repro.workload.table import JobTable


def stream(n=60, seed=3, procs=32):
    """A deterministic little arrival stream for session tests."""
    import random

    rng = random.Random(seed)
    jobs, t = [], 0.0
    for i in range(n):
        t += rng.expovariate(1 / 40)
        runtime = rng.uniform(20, 3000)
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=t,
                runtime=runtime,
                estimate=runtime * rng.uniform(1.0, 2.0),
                procs=rng.randint(1, procs // 2),
            )
        )
    return jobs


class TestSubmitAdvance:
    def test_submit_returns_autoincrementing_ids(self):
        session = Session(16)
        assert session.submit(runtime=10, procs=1) == 1
        assert session.submit(runtime=10, procs=1) == 2

    def test_advance_is_monotone_and_returns_clock(self):
        session = Session(16)
        assert session.advance(50.0) == 50.0
        assert session.advance(dt=25.0) == 75.0
        with pytest.raises(SimulationError, match="non-decreasing"):
            session.advance(10.0)

    def test_submission_into_the_past_is_rejected(self):
        session = Session(16)
        session.advance(100.0)
        with pytest.raises(SimulationError, match="simulated past"):
            session.submit(runtime=10, procs=1, submit_time=50.0)

    def test_duplicate_job_id_is_rejected(self):
        session = Session(16)
        session.submit(runtime=10, procs=1, job_id=7)
        with pytest.raises(SimulationError, match="duplicate job id"):
            session.submit(runtime=10, procs=1, job_id=7)

    def test_advance_needs_exactly_one_target(self):
        session = Session(16)
        with pytest.raises(SimulationError, match="exactly one"):
            session.advance()
        with pytest.raises(SimulationError, match="exactly one"):
            session.advance(5.0, dt=5.0)

    def test_advance_past_last_arrival_keeps_draining(self):
        session = Session(32)
        for job in stream(20):
            session.submit(job)
        session.advance(10_000_000.0)
        stats = session.stats()
        assert stats.completed == 20
        assert stats.queued == 0 and stats.running == 0
        # the stream continues: a later submission is still legal
        session.submit(runtime=5, procs=1)
        session.advance(dt=100.0)
        assert session.stats().completed == 21

    def test_zero_job_session_is_legal(self):
        session = Session(8)
        session.advance(1000.0)
        stats = session.stats()
        assert stats.completed == 0 and stats.submitted == 0
        assert math.isnan(stats.overall.mean_wait)
        forecast = session.queue_forecast(50.0)
        assert forecast.free_procs == 8
        report = session.what_if(runtime=30, procs=4)
        assert report.target.start_time == 1000.0


class TestSubmitTable:
    """Bulk table ingest: the columnar analogue of per-row ``submit``."""

    def _table(self, jobs, procs=32):
        return JobTable.from_workload(Workload.from_jobs(jobs, procs))

    def test_table_session_matches_row_session(self):
        jobs = stream(60)
        by_rows = Session(32, scheduler="easy")
        for job in jobs:
            by_rows.submit(job)
        by_table = Session(32, scheduler="easy")
        ids = by_table.submit_table(self._table(jobs))
        assert ids == tuple(job.job_id for job in sorted(
            jobs, key=lambda j: (j.submit_time, j.job_id)
        ))
        by_rows.advance(10_000_000.0)
        by_table.advance(10_000_000.0)
        assert metrics_digest(by_table.metrics()) == metrics_digest(
            by_rows.metrics()
        )

    def test_empty_table_is_a_noop(self):
        session = Session(16)
        assert session.submit_table(self._table([], procs=16)) == ()
        assert session.stats().submitted == 0

    def test_past_submissions_are_rejected(self):
        session = Session(32)
        session.advance(100.0)
        with pytest.raises(SimulationError, match="simulated past"):
            session.submit_table(
                self._table([Job(1, 50.0, 10.0, 10.0, 1)])
            )

    def test_id_collision_with_prior_submission_is_rejected(self):
        session = Session(32)
        session.submit(runtime=10, procs=1, job_id=7)
        with pytest.raises(SimulationError, match="duplicate job id 7"):
            session.submit_table(
                self._table([Job(7, 0.0, 10.0, 10.0, 1)])
            )

    def test_oversized_job_is_rejected(self):
        session = Session(8)
        with pytest.raises(SimulationError, match="needs 16 procs"):
            session.submit_table(
                self._table([Job(1, 0.0, 10.0, 10.0, 16)], procs=16)
            )

    def test_next_id_advances_past_table_ids(self):
        session = Session(32)
        session.submit_table(self._table([Job(41, 0.0, 10.0, 10.0, 1)]))
        assert session.submit(runtime=10, procs=1) == 42

    def test_mixing_table_and_row_submissions(self):
        jobs = stream(30)
        split = len(jobs) // 2
        mixed = Session(32, scheduler="cons")
        mixed.submit_table(self._table(jobs[:split]))
        for job in jobs[split:]:
            mixed.submit(job)
        rows = Session(32, scheduler="cons")
        for job in jobs:
            rows.submit(job)
        mixed.advance(10_000_000.0)
        rows.advance(10_000_000.0)
        assert metrics_digest(mixed.metrics()) == metrics_digest(rows.metrics())


#: Each refusal, as (message, refused job), offered to a 16-processor
#: session that already holds job 7 and has simulated up to t = 100.
_REFUSALS = {
    "past": ("simulated past", Job(1, 50.0, 10.0, 10.0, 1)),
    "id-above-max": ("exceeds the maximum", Job(_MAX_JOB_ID + 1, 100.0, 10.0, 10.0, 1)),
    "id-collision": ("duplicate job id 7", Job(7, 100.0, 10.0, 10.0, 1)),
    "too-wide": ("needs 32 procs", Job(1, 100.0, 10.0, 10.0, 32)),
}


@pytest.mark.parametrize("via", ("submit", "submit_table"))
@pytest.mark.parametrize("refusal", tuple(_REFUSALS))
def test_refused_submission_leaves_the_session_usable(refusal, via):
    match, job = _REFUSALS[refusal]
    session = Session(16)
    session.submit(runtime=10, procs=1, job_id=7)
    session.advance(100.0)
    with pytest.raises(SimulationError, match=match):
        if via == "submit":
            session.submit(job)
        else:
            session.submit_table(JobTable.from_workload(Workload.from_jobs([job], 32)))
    assert session.advance(200.0) == 200.0
    stats = session.stats()
    assert stats.submitted == 1 and stats.completed == 1
    assert session.what_if(runtime=10, procs=16).target.start_time == 200.0


class TestQueries:
    @pytest.fixture()
    def loaded(self):
        session = Session(32, scheduler="easy", alternatives=("cons",))
        for job in stream(60):
            session.submit(job)
        session.advance(1500.0)
        return session

    def test_what_if_does_not_perturb_live_state(self, loaded):
        before = loaded.stats()
        digest_before = metrics_digest(loaded.metrics())
        for _ in range(3):
            loaded.what_if(runtime=500, procs=16)
        after = loaded.stats()
        assert (before.completed, before.queued, before.clock) == (
            after.completed,
            after.queued,
            after.clock,
        )
        assert metrics_digest(loaded.metrics()) == digest_before

    def test_what_if_predicts_start_at_or_after_submit(self, loaded):
        report = loaded.what_if(runtime=600, procs=8)
        assert report.target is not None
        assert report.target.start_time >= loaded.clock
        assert report.target.finish_time == pytest.approx(
            report.target.start_time + 600
        )

    def test_what_if_across_policies_uses_each_scheduler(self, loaded):
        easy = loaded.what_if(runtime=600, procs=8)
        cons = loaded.what_if(runtime=600, procs=8, policy="cons")
        assert easy.policy == "easy" and cons.policy == "cons"
        # both are valid forecasts; they may or may not coincide
        assert cons.target.start_time >= loaded.clock

    def test_what_if_without_a_job_reports_queue_drain(self, loaded):
        report = loaded.what_if()
        assert report.target is None
        pending_before = len(loaded.pending_jobs())
        assert len(report.pending) == pending_before
        assert report.drained_at >= loaded.clock

    def test_what_if_rejects_past_submit_and_id_collisions(self, loaded):
        with pytest.raises(SimulationError, match="simulated past"):
            loaded.what_if(
                Job(job_id=999, submit_time=0.0, runtime=10, estimate=10, procs=1)
            )
        with pytest.raises(SimulationError, match="collides"):
            loaded.what_if(
                Job(
                    job_id=1,
                    submit_time=loaded.clock,
                    runtime=10,
                    estimate=10,
                    procs=1,
                )
            )

    def test_unknown_policy_is_a_clear_error(self, loaded):
        with pytest.raises(SimulationError, match="unknown policy"):
            loaded.what_if(runtime=10, procs=1, policy="fcfs-deluxe")

    def test_queue_forecast_reports_future_state(self, loaded):
        forecast = loaded.queue_forecast(3000.0)
        assert forecast.at_time == loaded.clock + 3000.0
        assert forecast.completed_in_horizon >= 0
        assert 0 <= forecast.free_procs <= 32
        for running in forecast.running:
            assert running.start_time <= forecast.at_time

    def test_queue_forecast_rejects_bad_horizons(self, loaded):
        with pytest.raises(SimulationError, match="horizon"):
            loaded.queue_forecast(-1.0)
        with pytest.raises(SimulationError, match="horizon"):
            loaded.queue_forecast(math.inf)


class TestPolicies:
    def test_alternative_priority_inherited_and_explicit(self):
        session = Session(
            16, scheduler="easy", priority="SJF", alternatives=("cons", "nobf:FCFS")
        )
        assert session.policies == ("easy", "cons", "nobf:FCFS")

    def test_duplicate_policy_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            Session(16, scheduler="easy", alternatives=("easy",))

    def test_scheduler_instance_accepted(self):
        scheduler = make_scheduler("sel", "SJF")
        session = Session(16, scheduler=scheduler)
        assert session.primary == scheduler.describe()

    def test_bad_machine_size_rejected(self):
        with pytest.raises(SimulationError, match="max_procs"):
            Session(0)

    def test_bad_metrics_mode_rejected(self):
        with pytest.raises(SimulationError, match="metrics mode"):
            Session(16, metrics="approximate")


class TestSnapshotRestore:
    def test_fork_is_independent(self):
        session = Session(32, metrics="exact")
        for job in stream(30):
            session.submit(job)
        session.advance(800.0)
        fork = session.fork()
        fork.submit(runtime=50, procs=4)
        fork.advance(dt=100_000.0)
        assert session.clock == 800.0
        assert fork.stats().completed == 31
        assert session.stats().submitted == 30

    def test_restored_session_continues_identically(self):
        jobs = stream(40)

        def play(session):
            for job in jobs[:25]:
                session.submit(job)
            session.advance(700.0)
            return session

        one = play(Session(32, metrics="exact"))
        two = play(Session(32, metrics="exact")).fork()
        for session in (one, two):
            for job in jobs[25:]:
                session.submit(job)
            session.advance(10_000_000.0)
        assert metrics_digest(one.metrics()) == metrics_digest(two.metrics())


class TestLiveEqualsBatch:
    """A session that streams a workload in and drains it produces
    byte-identical metrics to one batch simulation of that workload."""

    @pytest.mark.parametrize("mode", ["exact", "bounded"])
    @pytest.mark.parametrize("kind", ["easy", "cons", "nobf"])
    def test_streamed_session_matches_batch(self, kind, mode):
        jobs = stream(50)
        session = Session(32, scheduler=kind, metrics=mode)
        # stream in three installments with interleaved advances
        session.advance(jobs[0].submit_time)
        for lo, hi, upto in ((0, 20, 500.0), (20, 35, 900.0), (35, 50, None)):
            for job in jobs[lo:hi]:
                session.submit(job)
            if upto is not None:
                session.advance(upto)
        session.advance(50_000_000.0)
        live = session.metrics()

        batch = simulate(
            Workload.from_jobs(jobs, 32, name="live"), make_scheduler(kind)
        ).metrics
        # utilization/makespan denominators differ (the live session was
        # advanced past the drain point), so compare the completion-driven
        # aggregates and records; full-digest identity is pinned on the
        # what-if path by tests/properties/test_prop_serve_equivalence.py.
        assert live.overall == batch.overall
        assert live.by_category == batch.by_category
        assert live.by_estimate_quality == batch.by_estimate_quality
        if mode == "exact":
            assert live.records == batch.records
        else:
            assert session.stats().records_held == 0
