"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json

import pytest
from hypothesis import settings

from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.lookahead import LookaheadScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.multiqueue import MultiQueueScheduler
from repro.workload.job import Job, Workload

# Tier-1 is deterministic by construction: the default profile derives
# every example from the test itself and keeps no example database, so
# two runs collect and execute the identical cases.  The nightly job
# explores instead (``--hypothesis-profile=explore``, Hypothesis's own
# flag): fresh random examples, ten times the default budget for tests
# that do not cap their own.
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, max_examples=1000)
settings.load_profile("default")


def make_job(
    job_id: int,
    submit: float = 0.0,
    runtime: float = 100.0,
    procs: int = 1,
    estimate: float | None = None,
    **extra,
) -> Job:
    """Terse job constructor for hand-built scheduling scenarios."""
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime,
        procs=procs,
        **extra,
    )


def make_workload(jobs, max_procs: int = 10, name: str = "test") -> Workload:
    return Workload.from_jobs(jobs, max_procs=max_procs, name=name)


def write_legacy_json(cache_dir, pairs) -> None:
    """Write ``(cell, stored)`` pairs the way the retired JSON-per-file
    store backend did: ``<cache_dir>/<content hash>.json``, one entry
    payload each.  Nothing in the package writes this layout any more;
    the suites that check it is imported or refused build it here."""
    from repro.exec.store import stored_payload

    cache_dir.mkdir(parents=True, exist_ok=True)
    for cell, stored in pairs:
        path = cache_dir / f"{cell.content_hash()}.json"
        path.write_text(json.dumps(stored_payload(cell, stored)))


#: The batch trap: simultaneous arrivals and many finishes
#: inside one batch are where "nothing changed since the last pass" stops
#: being true.  23 one-processor and one two-processor 10 s jobs at t = 0
#: on a 4-processor machine, then one 20 s job at t = 50, exact estimates.
#: Pinned by the planner and the EASY differential suites.
BATCH_TRAP = Workload(
    tuple(
        [Job(job_id=i + 1, submit_time=0.0, runtime=10.0, estimate=10.0, procs=1)
         for i in range(23)]
        + [Job(job_id=24, submit_time=0.0, runtime=10.0, estimate=10.0, procs=2),
           Job(job_id=25, submit_time=50.0, runtime=20.0, estimate=20.0, procs=1)]
    ),
    max_procs=4,
    name="batch-trap",
)


#: All scheduling disciplines, for parametrized invariant tests.
ALL_SCHEDULER_FACTORIES = {
    "nobf": FCFSScheduler,
    "cons": ConservativeScheduler,
    "easy": EasyScheduler,
    "sel": SelectiveScheduler,
    "look": LookaheadScheduler,
    "slack": SlackScheduler,
    "depth": DepthScheduler,
    "mq": MultiQueueScheduler,
}


@pytest.fixture(params=sorted(ALL_SCHEDULER_FACTORIES))
def any_scheduler_factory(request):
    """Yields each scheduler class in turn."""
    return ALL_SCHEDULER_FACTORIES[request.param]
