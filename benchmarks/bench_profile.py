"""Microbenchmarks for the availability profile (DESIGN.md §5 ablation).

The profile is the inner loop of every reservation-based scheduler, so its
primitives are benchmarked directly: reserve/release cycles, find_start on
a loaded profile, the advance garbage-collection, and one ``claim_many``
repack batch at 20 / 200 / 2,000 jobs.
"""

import numpy as np
import pytest

from repro.hostinfo import host_provenance
from repro.sched.profile import Profile

TOTAL = 430  # CTC machine size


@pytest.fixture(autouse=True)
def _host_stamp(benchmark):
    """Stamp host provenance into the exported benchmark JSON so
    ``compare_bench.py`` host-drift warnings cover this artifact too."""
    benchmark.extra_info["host"] = host_provenance()


def _loaded_profile(n_reservations: int, seed: int = 0) -> Profile:
    rng = np.random.default_rng(seed)
    profile = Profile(TOTAL)
    for _ in range(n_reservations):
        procs = int(rng.integers(1, 65))
        duration = float(rng.uniform(60.0, 64800.0))
        start = profile.find_start(procs, duration, float(rng.uniform(0, 1e6)))
        profile.reserve(procs, start, duration)
    return profile


@pytest.mark.parametrize("n", [50, 200])
def test_reserve_release_cycle(benchmark, n):
    profile = _loaded_profile(n)

    def cycle():
        start = profile.find_start(16, 3600.0, 0.0)
        profile.reserve(16, start, 3600.0)
        profile.release(16, start, 3600.0)

    benchmark(cycle)


@pytest.mark.parametrize("n", [50, 200])
def test_find_start_wide_job(benchmark, n):
    profile = _loaded_profile(n)
    benchmark(profile.find_start, 400, 7200.0, 0.0)


def _busy_machine(seed: int) -> list[tuple[int, float]]:
    """A plausible running set: widths sum to the machine size (fully busy)."""
    rng = np.random.default_rng(seed)
    running = []
    remaining = TOTAL
    while remaining > 0:
        procs = min(int(rng.integers(1, 17)), remaining)
        running.append((procs, float(rng.uniform(1e5, 2e5))))
        remaining -= procs
    return running


def test_build_from_running_jobs(benchmark):
    benchmark(Profile.from_running_jobs, TOTAL, 1e5, _busy_machine(3))


@pytest.mark.parametrize("n", [20, 200, 2000])
def test_claim_many_batch(benchmark, n):
    """One repack batch on a freshly rebuilt profile (DESIGN.md section 7).

    The rebuild is set-up, outside the timing; us/claim is the reported
    time over ``n``.  20 jobs is what the simulator's repacks look like,
    2,000 is far past anything it builds.
    """
    running = _busy_machine(3)
    rng = np.random.default_rng(n)
    procs = rng.integers(1, 65, n).tolist()
    durations = rng.uniform(60.0, 64800.0, n).tolist()
    profile = Profile(TOTAL, origin=1e5)
    benchmark.extra_info["jobs"] = n
    benchmark.pedantic(
        profile.claim_many,
        args=(procs, durations, 1e5),
        setup=lambda: profile.rebuild_into(1e5, running),
        rounds=max(20, 4000 // n),
    )


def test_advance_over_dense_profile(benchmark):
    def advance_half():
        profile = _loaded_profile(200)
        horizon = profile.breakpoints()[-1][0]
        profile.advance(horizon / 2)
        return profile

    benchmark(advance_half)
