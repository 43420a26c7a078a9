"""Throughput benchmarks: jobs scheduled per second for every discipline.

Useful for spotting algorithmic regressions (the conservative profile is
O(queue x breakpoints) per compression pass) and for sizing larger trace
studies.
"""

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_scheduler, make_workload
from repro.sim.engine import simulate

N_JOBS = 600

WORKLOADS = {
    "exact": WorkloadSpec(n_jobs=N_JOBS, seed=1, estimate="exact"),
    "user": WorkloadSpec(n_jobs=N_JOBS, seed=1, estimate="user"),
}


@pytest.mark.parametrize("kind", ["nobf", "easy", "cons", "sel"])
@pytest.mark.parametrize("estimate", ["exact", "user"])
def test_scheduler_throughput(benchmark, kind, estimate):
    workload = make_workload(WORKLOADS[estimate])

    def run():
        return simulate(workload, make_scheduler(kind, "FCFS"))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.completed) == N_JOBS
