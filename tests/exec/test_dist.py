"""Multi-process distribution: real workers, real contention, real kills.

Where ``test_queue.py`` drives the lease state machine with a fake
clock, these tests spawn actual worker processes against one shared
queue directory and pin the distributed executor's three core promises:
concurrent workers never double-simulate, a SIGKILL-ed worker's leases
are stolen and finished with serial-identical results, and failures
surface loudly instead of hanging the sweep.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.exec import (
    Cell,
    CellExecutor,
    CellQueue,
    DistExecutor,
    ResultStore,
    metrics_digest,
    run_worker,
    simulate_cell,
)
from repro.exec.dist import worker_process_main
from repro.experiments.config import WorkloadSpec


def grid(n, *, n_jobs=40, kind="easy"):
    """``n`` single-cell chain groups (distinct seeds, no shared prefix)."""
    return [
        Cell(WorkloadSpec("CTC", n_jobs, seed=i + 1, load_scale=0.9), kind, "FCFS")
        for i in range(n)
    ]


def spawn_worker(queue_dir, owner, *, lease_seconds=120.0, batch_groups=2):
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(
        target=worker_process_main,
        args=(str(queue_dir), owner, lease_seconds, 3, batch_groups, 0.05),
    )
    proc.start()
    return proc


@pytest.mark.slow
def test_two_workers_drain_disjointly_with_serial_identical_results(tmp_path):
    cells = grid(24)
    serial_digests = [metrics_digest(simulate_cell(c).metrics) for c in cells]

    queue = CellQueue(tmp_path)
    queue.enqueue(cells)
    workers = [spawn_worker(tmp_path, f"w{i}") for i in range(2)]
    for proc in workers:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    stats = queue.stats()
    assert stats.done_cells == len(cells)
    assert stats.poisoned_cells == 0
    # Disjoint leases: nobody simulated a cell someone else already held,
    # so no group ever needed a second lease grant.
    assert stats.retried_cells == 0

    fetched = ResultStore(tmp_path).get_many(cells)
    assert [metrics_digest(fetched[c].metrics) for c in cells] == serial_digests
    queue.close()


@pytest.mark.slow
def test_killed_worker_leases_are_stolen_and_finished(tmp_path):
    cells = grid(40)
    serial_digests = [metrics_digest(simulate_cell(c).metrics) for c in cells]

    lease = 1.5
    queue = CellQueue(tmp_path, lease_seconds=lease)
    queue.enqueue(cells)
    # A ghost owner strands two leases unconditionally, so the steal path
    # runs even if the victim dies before claiming anything.
    assert len(queue.claim("ghost", limit_groups=2)) == 2

    victim = spawn_worker(tmp_path, "victim", lease_seconds=lease)
    deadline = time.time() + 60
    while time.time() < deadline:
        if victim.exitcode is not None or queue.stats().done_cells > 0:
            break
        time.sleep(0.005)
    if victim.is_alive():
        os.kill(victim.pid, signal.SIGKILL)
    victim.join()

    report = run_worker(
        tmp_path, owner="survivor", lease_seconds=lease, poll_seconds=0.05
    )
    assert report.groups_failed == 0

    stats = queue.stats()
    assert stats.done_cells == len(cells)
    assert stats.open_cells == 0
    assert stats.poisoned_cells == 0
    assert stats.retried_cells >= 2  # at least the ghost's stranded leases

    fetched = ResultStore(tmp_path).get_many(cells)
    assert [metrics_digest(fetched[c].metrics) for c in cells] == serial_digests
    queue.close()


class TestDistExecutor:
    def test_inline_drain_matches_serial_and_reports_provenance(self, tmp_path):
        cells = grid(6)
        serial = CellExecutor(store=ResultStore(tmp_path / "ref"))
        expected = [metrics_digest(m) for m in serial.execute(cells)]

        dist = DistExecutor(tmp_path / "queue")
        metrics = dist.execute(cells)
        assert [metrics_digest(m) for m in metrics] == expected

        report = dist.last_report
        assert report.parallel_requested is True
        assert report.parallel_used is False
        assert report.parallel_reason == "dist queue, inline drain"
        assert report.completed == len(cells)
        assert "dist queue, inline drain" in report.render()

        # Second run resolves warm from the shared store.
        dist.execute(cells)
        assert dist.last_report.cache_hits == len(cells)
        assert dist.last_report.parallel_reason == "fully cached"
        dist.queue.close()

    def test_deterministic_failure_poisons_and_raises(self, tmp_path, monkeypatch):
        # Cell validates its config eagerly, so inject the deterministic
        # failure at the simulation seam instead: one marked cell always
        # raises a ReproError, which must poison (not retry) its group.
        import repro.exec.dist as dist_mod

        bad = Cell(WorkloadSpec("CTC", 20, seed=999, load_scale=0.8), "easy", "FCFS")
        real = dist_mod.simulate_chunk_chained

        def failing(cells):
            if bad in cells:
                raise ReproError("synthetic deterministic failure")
            return real(cells)

        monkeypatch.setattr(dist_mod, "simulate_chunk_chained", failing)

        good = grid(2)
        dist = DistExecutor(tmp_path)
        with pytest.raises(ReproError, match="poisoned 1 cell"):
            dist.execute(good + [bad])

        # The failure is surfaced, inspectable, and retryable.
        poisoned = dist.queue.poisoned()
        assert len(poisoned) == 1
        assert poisoned[0].attempts == 1  # poisoned on first grant, no retry loop
        assert "synthetic deterministic failure" in poisoned[0].error
        # Good cells still completed and persisted despite the failure.
        fetched = ResultStore(tmp_path).get_many(good)
        assert len(fetched) == len(good)
        dist.queue.close()

    def test_rejects_foreign_store_and_negative_workers(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DistExecutor(tmp_path / "q", workers=-1)
        foreign = ResultStore(tmp_path / "elsewhere")
        with pytest.raises(ConfigurationError):
            DistExecutor(tmp_path / "q", store=foreign)
        with pytest.raises(ConfigurationError):
            DistExecutor(tmp_path / "q", store=ResultStore())  # memory-only


class TestParallelProvenance:
    """Satellite: every execution report says whether parallelism ran."""

    def test_serial_executor_explains_itself(self, tmp_path):
        executor = CellExecutor(store=ResultStore(tmp_path))
        executor.execute(grid(2))
        report = executor.last_report
        assert report.parallel_requested is False
        assert report.parallel_used is False
        assert report.parallel_reason == "in-process"
        assert "serial (in-process)" in report.render()

    def test_single_miss_falls_back_to_serial_with_reason(self, tmp_path):
        executor = DistExecutor(tmp_path, workers=4)
        executor.execute(grid(1))
        report = executor.last_report
        assert report.parallel_requested is True
        assert report.parallel_used is False
        assert "workers idle" in report.parallel_reason
        executor.close()


def _die_at_startup(*_args):
    """Worker target standing in for a fleet that cannot start."""
    os._exit(3)


@pytest.mark.slow
def test_dead_fleet_does_not_hang_the_coordinator(tmp_path, monkeypatch):
    import repro.exec.dist as dist_mod

    cells = grid(6)
    expected = [metrics_digest(simulate_cell(c).metrics) for c in cells]
    monkeypatch.setattr(dist_mod, "worker_process_main", _die_at_startup)

    outcome = {}

    def coordinate():
        dist = DistExecutor(tmp_path, workers=2, lease_seconds=1.0, poll_seconds=0.05)
        outcome["metrics"] = dist.execute(cells)
        outcome["report"] = dist.last_report
        dist.close()

    # On a thread so that a coordinator polling a queue nobody serves
    # fails this test instead of hanging the suite.
    thread = threading.Thread(target=coordinate, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "coordinator still waiting on a dead fleet"

    # No local worker alive and open cells remaining: it drained inline.
    assert [metrics_digest(m) for m in outcome["metrics"]] == expected
    assert outcome["report"].simulated == len(cells)
    assert "all exited early: drained inline" in outcome["report"].parallel_reason
    queue = CellQueue(tmp_path)
    stats = queue.stats()
    assert (stats.done_cells, stats.open_cells, stats.poisoned_cells) == (6, 0, 0)
    queue.close()
