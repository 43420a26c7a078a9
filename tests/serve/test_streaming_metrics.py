"""Differential suite: StreamingMetrics vs the batch metrics path.

The serve layer's claim (DESIGN.md §11) is that feeding completions to a
:class:`~repro.metrics.streaming.StreamingMetrics` sink one at a time
produces the same :class:`~repro.metrics.collector.RunMetrics` the batch
path computes from the full record list — *float-identically*, because
both run the same sequential left-to-right summation over the same
values in the same order.  For every scheduler × priority the sink's
aggregates are pinned byte-identical (digest equality once the batch
records are attached) and equal field by field while the sink holds
zero per-job records — the O(1)-memory witness.  The fold depends on
observation order, so the whole matrix is checked, not a sample.
"""

import dataclasses
import functools
import math

import pytest

from repro.exec.serialize import metrics_digest
from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import (
    SCHEDULER_KINDS,
    cached_workload,
    make_scheduler,
)
from repro.metrics.streaming import (
    DEFAULT_RESERVOIR_CAPACITY,
    GroupAccumulator,
    QuantileReservoir,
    StreamingMetrics,
)
from repro.sched.priority.policies import PRIORITY_POLICIES
from repro.sim.engine import Simulator, simulate

SPEC = WorkloadSpec(trace="CTC", n_jobs=400, seed=11)


@functools.cache
def batch_and_streaming(kind, priority):
    """Run the same workload twice: batch path and metrics-sink path."""
    workload = cached_workload(SPEC)
    batch = simulate(workload, make_scheduler(kind, priority))
    sink = StreamingMetrics()
    streamed = Simulator(
        workload, make_scheduler(kind, priority), metrics_sink=sink
    ).run()
    return batch, streamed, sink


MATRIX = [
    pytest.param(kind, priority, id=f"{kind}-{priority}")
    for kind in SCHEDULER_KINDS
    for priority in PRIORITY_POLICIES
]


class TestDifferential:
    """Every scheduler × priority: streaming == batch."""

    @pytest.mark.parametrize("kind, priority", MATRIX)
    def test_exact_mode_is_byte_identical(self, kind, priority):
        """The sink's aggregates are exact to the byte: with the batch
        records attached, the streamed metrics have the batch digest."""
        batch, streamed, _ = batch_and_streaming(kind, priority)
        grafted = dataclasses.replace(streamed.metrics, records=batch.metrics.records)
        assert metrics_digest(grafted) == metrics_digest(batch.metrics)

    @pytest.mark.parametrize("kind, priority", MATRIX)
    def test_bounded_mode_matches_aggregates_with_zero_records(self, kind, priority):
        batch, streamed, sink = batch_and_streaming(kind, priority)
        assert streamed.metrics.overall == batch.metrics.overall
        assert streamed.metrics.by_category == batch.metrics.by_category
        assert (
            streamed.metrics.by_estimate_quality
            == batch.metrics.by_estimate_quality
        )
        assert streamed.metrics.utilization == batch.metrics.utilization
        assert streamed.metrics.makespan == batch.metrics.makespan
        assert streamed.metrics.records == ()
        assert sink.records_held == 0

    def test_bounded_memory_is_flat_in_job_count(self):
        """The per-session memory bound: records_held stays 0 and the
        reservoirs stay at capacity no matter how many jobs stream by."""
        sink = StreamingMetrics(reservoir_capacity=64)
        workload = cached_workload(SPEC)
        Simulator(workload, make_scheduler("easy"), metrics_sink=sink).run()
        assert sink.count == len(workload)
        assert sink.records_held == 0
        assert len(sink._wait_reservoir) == 64
        assert sink._wait_reservoir.seen == len(workload)


class TestSinkBehavior:
    def test_watch_retains_only_watched_records(self):
        workload = cached_workload(SPEC)
        target = workload.jobs[37].job_id
        sink = StreamingMetrics()
        sink.watch(target)
        Simulator(workload, make_scheduler("easy"), metrics_sink=sink).run()
        assert sink.records_held == 1
        record = sink.watched_record(target)
        assert record is not None and record.job.job_id == target
        assert sink.watched_record(-5) is None

    def test_fork_is_independent(self):
        sink = StreamingMetrics()
        workload = cached_workload(SPEC)
        sim = Simulator(workload, make_scheduler("easy"), metrics_sink=sink)
        sim.run_until_time(workload.jobs[100].submit_time)
        fork = sink.fork()
        seen_at_fork = fork.count
        sim.drain()
        assert sink.count == len(workload)
        assert fork.count == seen_at_fork

    def test_quantiles_are_sane(self):
        _, _, sink = batch_and_streaming("easy", "FCFS")
        p50, p99 = sink.wait_quantile(0.5), sink.wait_quantile(0.99)
        assert 0 <= p50 <= p99
        assert sink.slowdown_quantile(0.99) >= 1.0

    def test_makespan_tracks_submit_to_finish_span(self):
        sink = StreamingMetrics()
        assert sink.makespan == 0.0
        workload = cached_workload(SPEC)
        result = Simulator(
            workload, make_scheduler("easy"), metrics_sink=sink
        ).run()
        assert sink.makespan == result.metrics.makespan


class TestReservoir:
    def test_exact_below_capacity(self):
        reservoir = QuantileReservoir(capacity=100, seed=1)
        for value in range(50):
            reservoir.observe(float(value))
        assert reservoir.quantile(0.0) == 0.0
        assert reservoir.quantile(1.0) == 49.0
        assert reservoir.quantile(0.5) == 24.0

    def test_saturated_sample_is_bounded_and_plausible(self):
        reservoir = QuantileReservoir(capacity=256, seed=2)
        for value in range(10_000):
            reservoir.observe(float(value))
        assert len(reservoir) == 256
        assert reservoir.seen == 10_000
        median = reservoir.quantile(0.5)
        assert 2_000 <= median <= 8_000  # loose: it's a uniform sample

    def test_fork_replays_identically(self):
        one = QuantileReservoir(capacity=8, seed=3)
        for value in range(100):
            one.observe(float(value))
        two = one.fork()
        for value in range(100, 200):
            one.observe(float(value))
            two.observe(float(value))
        assert one._sample == two._sample

    def test_empty_and_invalid(self):
        reservoir = QuantileReservoir()
        assert math.isnan(reservoir.quantile(0.5))
        with pytest.raises(ValueError):
            reservoir.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileReservoir(capacity=0)

    def test_default_capacity(self):
        assert QuantileReservoir().capacity == DEFAULT_RESERVOIR_CAPACITY


class TestGroupAccumulator:
    def test_running_sums_match_sequential_sum(self):
        values = [0.1, 0.7, 1e9, -0.3, 2.5, 1e-9] * 7
        acc = GroupAccumulator()
        for value in values:
            acc.observe(value, value * 2, value / 2)
        summary = acc.summary()
        assert summary.count == len(values)
        assert summary.mean_bounded_slowdown == sum(values) / len(values)
        assert summary.max_turnaround == max(v * 2 for v in values)

    def test_empty_summary_is_the_nan_sentinel(self):
        summary = GroupAccumulator().summary()
        assert summary.count == 0
        assert math.isnan(summary.mean_wait)
