"""Lease-queue semantics: enqueue idempotence, claims, steals, poisoning.

Single-process tests of :class:`~repro.exec.queue.CellQueue` driving the
whole lease state machine through its ``now=`` test seam — expiry and
steals are exercised by advancing a fake clock, not by sleeping.  The
true multi-process contention story (spawned workers, SIGKILL) lives in
``tests/exec/test_dist.py``.
"""

import json

import pytest

from repro.exec import Cell, CellQueue, ResultStore, metrics_digest, simulate_cell
from repro.exec.queue import group_id
from repro.experiments.config import WorkloadSpec

LEASE = 60.0


def make_cells():
    """Five cells planning into three chain groups (one pair shares a
    (seed, load) column and differs only by n_jobs)."""
    return [
        Cell(WorkloadSpec("CTC", 30, seed=1, load_scale=0.8), "easy", "FCFS"),
        Cell(WorkloadSpec("CTC", 45, seed=1, load_scale=0.8), "easy", "FCFS"),
        Cell(WorkloadSpec("CTC", 30, seed=2, load_scale=0.8), "cons", "FCFS"),
        Cell(WorkloadSpec("CTC", 30, seed=3, load_scale=0.8), "nobf", "SJF"),
        Cell(WorkloadSpec("CTC", 45, seed=3, load_scale=0.8), "nobf", "SJF"),
    ]


@pytest.fixture
def queue(tmp_path):
    q = CellQueue(tmp_path, lease_seconds=LEASE, max_attempts=3)
    yield q
    q.close()


def drain_claim(queue, owner, *, now):
    return queue.claim(owner, limit_groups=100, now=now)


class TestEnqueue:
    def test_plans_chain_groups_and_counts(self, queue):
        report = queue.enqueue(make_cells())
        assert report.cells == 5
        assert report.groups == 3
        assert report.enqueued == 5
        assert report.already_queued == 0
        stats = queue.stats()
        assert stats.pending_cells == 5
        assert stats.pending_groups == 3

    def test_reenqueue_is_idempotent(self, queue):
        cells = make_cells()
        queue.enqueue(cells)
        again = queue.enqueue(cells)
        assert again.enqueued == 0
        assert again.already_queued == 5
        assert queue.stats().pending_cells == 5

    def test_reenqueue_leaves_leased_rows_alone(self, queue):
        cells = make_cells()
        queue.enqueue(cells)
        claimed = drain_claim(queue, "w1", now=100.0)
        assert claimed
        queue.enqueue(cells)
        stats = queue.stats()
        assert stats.leased_cells == 5
        assert stats.pending_cells == 0

    def test_reenqueue_revives_done_and_poisoned(self, queue):
        cells = make_cells()
        queue.enqueue(cells)
        [first, *rest] = drain_claim(queue, "w1", now=100.0)
        results = [(c, simulate_cell(c)) for c in first.cells]
        queue.complete("w1", [first.group_id], results)
        for group in rest:
            queue.fail(group.group_id, "boom", poison=True)
        assert queue.stats().open_cells == 0

        report = queue.enqueue(cells)
        assert report.enqueued == 5  # every settled row revived
        stats = queue.stats()
        assert stats.pending_cells == 5
        assert stats.done_cells == stats.poisoned_cells == 0


class TestClaim:
    def test_groups_are_indivisible_and_horizon_ordered(self, queue):
        queue.enqueue(make_cells())
        claimed = drain_claim(queue, "w1", now=100.0)
        assert sorted(len(g.cells) for g in claimed) == [1, 2, 2]
        for group in claimed:
            horizons = [cell.spec.n_jobs for cell in group.cells]
            assert horizons == sorted(horizons)
            assert group.group_id == group_id(group.cells)
            assert group.attempts == 1

    def test_concurrent_owners_get_disjoint_groups(self, queue):
        queue.enqueue(make_cells())
        first = queue.claim("w1", limit_groups=2, now=100.0)
        second = drain_claim(queue, "w2", now=100.0)
        assert len(first) == 2 and len(second) == 1
        assert not ({g.group_id for g in first} & {g.group_id for g in second})
        assert drain_claim(queue, "w3", now=100.0) == []

    def test_live_leases_are_not_stolen(self, queue):
        queue.enqueue(make_cells())
        drain_claim(queue, "w1", now=100.0)
        assert drain_claim(queue, "w2", now=100.0 + LEASE - 1) == []

    def test_expired_leases_are_stolen_with_attempt_bump(self, queue):
        queue.enqueue(make_cells())
        drain_claim(queue, "w1", now=100.0)
        stolen = drain_claim(queue, "w2", now=100.0 + LEASE + 1)
        assert len(stolen) == 3
        assert all(group.attempts == 2 for group in stolen)
        assert queue.stats().retried_cells == 5

    def test_expired_at_attempt_cap_is_poisoned_not_returned(self, queue):
        queue.enqueue(make_cells())
        now = 100.0
        for attempt in range(3):  # max_attempts grants
            claimed = drain_claim(queue, f"w{attempt}", now=now)
            assert claimed
            now += LEASE + 1
        assert drain_claim(queue, "w9", now=now) == []
        stats = queue.stats()
        assert stats.poisoned_cells == 5
        assert stats.open_cells == 0
        for poisoned in queue.poisoned():
            assert poisoned.attempts == 3
            assert "expired" in (poisoned.error or "")

    def test_undecodable_row_poisons_its_group(self, queue):
        cells = make_cells()
        queue.enqueue(cells)
        conn = queue._backend._queue_connection()
        with conn:
            conn.execute(
                "UPDATE queue SET cell = ? WHERE key = ?",
                ("not json", cells[0].content_hash()),
            )
        claimed = drain_claim(queue, "w1", now=100.0)
        # The broken pair's group is retired; the other two groups lease.
        assert len(claimed) == 2
        bad = [p for p in queue.poisoned() if "undecodable" in (p.error or "")]
        assert len(bad) == 2  # both cells of the broken chain group


class TestRenew:
    def test_renew_extends_live_lease_past_original_deadline(self, queue):
        queue.enqueue(make_cells())
        claimed = drain_claim(queue, "w1", now=100.0)
        gids = [g.group_id for g in claimed]
        # Just before expiry, push every deadline out a full lease period.
        assert queue.renew("w1", gids, now=100.0 + LEASE - 1) == 5
        # The original deadline passes: nothing is stealable...
        assert drain_claim(queue, "w2", now=100.0 + LEASE + 1) == []
        # ...until the *renewed* deadline passes too.
        stolen = drain_claim(queue, "w2", now=100.0 + 2 * LEASE + 1)
        assert {g.group_id for g in stolen} == set(gids)

    def test_renew_is_owner_scoped(self, queue):
        queue.enqueue(make_cells())
        claimed = drain_claim(queue, "w1", now=100.0)
        gids = [g.group_id for g in claimed]
        assert queue.renew("w2", gids, now=100.0) == 0
        # w2's attempt changed nothing: the lease still expires on time.
        assert len(drain_claim(queue, "w3", now=100.0 + LEASE + 1)) == 3

    def test_renew_skips_stolen_groups(self, queue):
        queue.enqueue(make_cells())
        claimed = drain_claim(queue, "w1", now=100.0)
        gids = [g.group_id for g in claimed]
        steal_time = 100.0 + LEASE + 1
        stolen = queue.claim("w2", limit_groups=1, now=steal_time)
        assert len(stolen) == 1
        # The late renewal touches only the groups w1 still holds — the
        # stolen one stays with the thief, and the shortfall (< 5 cells)
        # is the caller's signal that part of its claim moved on.
        renewed = queue.renew("w1", gids, now=steal_time)
        assert renewed == 5 - len(stolen[0].cells)
        still_w2 = queue.claim("w2", limit_groups=1, now=steal_time + 1)
        assert still_w2 == []  # the thief's lease is live, not re-stolen

    def test_renew_empty_group_list_is_noop(self, queue):
        queue.enqueue(make_cells())
        drain_claim(queue, "w1", now=100.0)
        assert queue.renew("w1", [], now=100.0) == 0


class TestCompleteAndFail:
    def test_complete_persists_results_and_marks_done(self, queue, tmp_path):
        cells = make_cells()
        queue.enqueue(cells)
        claimed = drain_claim(queue, "w1", now=100.0)
        for group in claimed:
            pairs = [(c, simulate_cell(c)) for c in group.cells]
            queue.complete("w1", [group.group_id], pairs)
        stats = queue.stats()
        assert stats.done_cells == 5 and stats.open_cells == 0

        # Results landed in the very store a warm sweep reads, and are
        # digest-identical to a direct ResultStore write.
        store = ResultStore(tmp_path)
        fetched = store.get_many(cells)
        assert len(fetched) == 5
        for cell, stored in fetched.items():
            assert metrics_digest(stored.metrics) == metrics_digest(
                simulate_cell(cell).metrics
            )
        assert queue.states_for(cells) == {
            cell.content_hash(): "done" for cell in cells
        }

    def test_fail_without_poison_returns_group_to_pending(self, queue):
        queue.enqueue(make_cells())
        [group, *_] = drain_claim(queue, "w1", now=100.0)
        queue.fail(group.group_id, "transient", poison=False)
        stats = queue.stats()
        assert stats.pending_cells >= len(group.cells)
        reclaimed = drain_claim(queue, "w2", now=101.0)
        assert group.group_id in {g.group_id for g in reclaimed}

    def test_fail_with_poison_retires_and_requeue_revives(self, queue):
        queue.enqueue(make_cells())
        [group, *_] = drain_claim(queue, "w1", now=100.0)
        queue.fail(group.group_id, "deterministic boom", poison=True)
        poisoned = queue.poisoned()
        assert {p.error for p in poisoned} == {"deterministic boom"}
        assert all(p.cell is not None for p in poisoned)

        assert queue.requeue_poisoned() == len(group.cells)
        assert queue.stats().poisoned_cells == 0
        reclaimed = drain_claim(queue, "w2", now=200.0)
        assert group.group_id in {g.group_id for g in reclaimed}

    def test_release_returns_live_leases(self, queue):
        queue.enqueue(make_cells())
        drain_claim(queue, "w1", now=100.0)
        assert queue.release("w1") == 5
        assert queue.stats().pending_cells == 5
        # Released rows keep their attempt count but claim again freely.
        again = drain_claim(queue, "w1", now=100.0)
        assert len(again) == 3


class TestMaintenance:
    def test_clear_done_drops_lease_rows_not_results(self, queue, tmp_path):
        cells = make_cells()
        queue.enqueue(cells)
        for group in drain_claim(queue, "w1", now=100.0):
            pairs = [(c, simulate_cell(c)) for c in group.cells]
            queue.complete("w1", [group.group_id], pairs)
        assert queue.clear_done() == 5
        assert queue.stats().total_cells == 0
        assert len(ResultStore(tmp_path).get_many(cells)) == 5

    def test_states_for_reports_absent_cells_as_missing(self, queue):
        cells = make_cells()
        queue.enqueue(cells[:2])
        states = queue.states_for(cells)
        assert set(states.values()) == {"pending"}
        assert len(states) == 2

    def test_stats_render_mentions_every_state(self, queue):
        queue.enqueue(make_cells())
        line = queue.stats().render()
        for word in ("pending", "leased", "done", "poisoned"):
            assert word in line

    def test_bad_lease_config_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CellQueue(tmp_path, lease_seconds=0)
        with pytest.raises(ValueError):
            CellQueue(tmp_path, max_attempts=0)
