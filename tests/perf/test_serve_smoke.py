"""Perf smoke test: live what-if queries must stay cheap and pure, as counts.

Loads a bounded-memory session (SDSC at 1.4x offered load, paused three
quarters of the way through the stream, with a deep queue), asks a
handful of full-drain what-ifs and pins the work each query does instead
of a rate: the events a drained branch has processed, read from
``SimulationResult.events_processed`` through a wrapper on
``Simulator.drain`` (the call every what-if ends in).  A lost
optimization — snapshots re-copying the workload, queries mutating the
live state, bounded mode quietly retaining records, a branch simulating
more than its own future — shows up here on any host.  Wall-clock belongs
to the ``serve_whatif`` workload of ``benchmarks/e2e``; this is the
tripwire on every push (``-m perf``).
"""

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_workload
from repro.serve import Session
from repro.sim.engine import Simulator

SMOKE_QUERIES = 8
N_JOBS = 600

#: Pause point, as a fraction of the last arrival time: where this
#: trace, seed and load have their deepest backlog.
FORK_FRACTION = 0.75

#: Events a drained branch has processed: the session's history at fork
#: time plus the branch's own drain — one arrival and one finish for each
#: of the 600 loaded jobs and the hypothetical one.
EVENTS_PER_WHAT_IF = 2 * (N_JOBS + 1)


def loaded_session(metrics="bounded"):
    """A live EASY session paused mid-stream with a contended queue."""
    workload = make_workload(WorkloadSpec("SDSC", N_JOBS, 11, 1.4, "user"))
    session = Session(workload.max_procs, scheduler="easy", metrics=metrics)
    for job in workload.jobs:
        session.submit(job)
    session.advance(workload.jobs[-1].submit_time * FORK_FRACTION)
    return session


def query_args(index):
    """Deterministically varied what-if jobs."""
    return {"runtime": 600.0 + 300.0 * (index % 12), "procs": 1 + index % 32}


@pytest.mark.perf
def test_what_if_queries_are_fast_pure_and_bounded(monkeypatch):
    drained: list[int] = []
    drain = Simulator.drain

    def counting_drain(self):
        result = drain(self)
        drained.append(result.events_processed)
        return result

    monkeypatch.setattr(Simulator, "drain", counting_drain)
    session = loaded_session()
    before = session.stats()
    assert before.queued > 0

    reports = [session.what_if(**query_args(i)) for i in range(SMOKE_QUERIES)]

    for report in reports:
        assert report.target.start_time >= report.asked_at
    # purity: the live session is untouched by its own queries
    assert session.stats() == before
    # bounded mode holds aggregates, never per-job records
    assert before.records_held == 0

    assert drained == [EVENTS_PER_WHAT_IF] * SMOKE_QUERIES
    # an identical query does identical work
    session.what_if(**query_args(0))
    assert drained[-1] == drained[0]


@pytest.mark.perf
def test_exact_mode_holds_one_record_per_completion():
    stats = loaded_session(metrics="exact").stats()
    assert stats.records_held == stats.completed > 0
