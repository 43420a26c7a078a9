"""Perf smoke test: live what-if queries must stay cheap and pure, as counts.

Runs a small slice of ``benchmarks/bench_serve.py`` (a loaded bounded-
memory session, a handful of full-drain what-ifs) and pins the work each
query does instead of a rate: the events a drained branch has processed,
read from ``SimulationResult.events_processed`` through a wrapper on
``Simulator.drain`` (the call every what-if ends in).  A lost
optimization — snapshots re-copying the workload, queries mutating the
live state, bounded mode quietly retaining records, a branch simulating
more than its own future — shows up here on any host.  Wall-clock belongs
to the ``serve_whatif`` workload of ``benchmarks/e2e``; this is the
tripwire on every push (``-m perf``).
"""

import pytest

from benchmarks.bench_serve import loaded_session, query_args
from repro.sim.engine import Simulator

SMOKE_QUERIES = 8

#: Events a drained branch has processed: the session's history at fork
#: time plus the branch's own drain — one arrival and one finish for each
#: of the 600 loaded jobs and the hypothetical one.
EVENTS_PER_WHAT_IF = 2 * (600 + 1)


@pytest.mark.perf
def test_what_if_queries_are_fast_pure_and_bounded(monkeypatch):
    drained: list[int] = []
    drain = Simulator.drain

    def counting_drain(self):
        result = drain(self)
        drained.append(result.events_processed)
        return result

    monkeypatch.setattr(Simulator, "drain", counting_drain)
    session, _, _ = loaded_session()
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
