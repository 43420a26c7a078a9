"""Bounded-memory streaming metrics for long-lived simulations.

A batch run keeps every :class:`~repro.metrics.collector.CompletedJob`
and aggregates at the end (:func:`~repro.metrics.collector.summarize`).
A *live* session — the serve layer's authoritative simulator, fed jobs
forever — cannot: per-job rows grow without bound.
:class:`StreamingMetrics` is the sink the engine feeds instead
(``Simulator(metrics_sink=...)``): each completion is folded into O(1)
accumulators and dropped.

Float identity with the batch path is by construction, not tolerance:
``sum()`` over a list is left-to-right sequential addition from ``0``,
so a running ``acc += x`` in observation order produces the bit-same
IEEE double, and the engine observes completions in exactly the order
the batch path stores them.  Per-job metric values come from the same
:class:`~repro.metrics.collector.CompletedJob` properties, and group
membership uses the same :func:`~repro.metrics.categories.categorize` /
:func:`~repro.metrics.categories.estimate_quality` functions.  The
differential suite (``tests/serve/test_streaming_metrics.py``) pins the
resulting :class:`~repro.metrics.collector.RunMetrics` aggregates equal
to the batch path for every scheduler x priority.

Memory is O(1) in job count: aggregates only, plus a fixed-capacity
deterministic :class:`QuantileReservoir` per tracked distribution (wait
and bounded slowdown) for percentile estimates the aggregates cannot
provide, plus any explicitly *watched* records
(:meth:`StreamingMetrics.watch` — how a what-if branch keeps the one
hypothetical job it was forked to predict).  A caller that needs every
record runs without a sink and lets the engine keep them.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from repro.metrics.categories import (
    Category,
    EstimateQuality,
    categorize,
    estimate_quality,
)
from repro.metrics.collector import CompletedJob, MetricSummary, RunMetrics

__all__ = ["StreamingMetrics", "QuantileReservoir", "GroupAccumulator"]

#: Default reservoir capacity: large enough for stable p99 estimates,
#: small enough that a session's metric state stays a few hundred KB.
DEFAULT_RESERVOIR_CAPACITY = 4096


class QuantileReservoir:
    """Fixed-capacity uniform sample of a stream (Vitter's algorithm R).

    Deterministic: the replacement RNG is seeded, and :meth:`fork`
    copies its state, so forked branches and resumed snapshots observe
    reproducible reservoirs.  Quantiles are nearest-rank over the
    current sample — exact until the stream exceeds ``capacity``, an
    unbiased estimate after.
    """

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._sample: list[float] = []
        self._seen = 0
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return len(self._sample)

    @property
    def seen(self) -> int:
        """Total values observed (>= the sample size once saturated)."""
        return self._seen

    def observe(self, value: float) -> None:
        """Fold one value into the reservoir."""
        self._seen += 1
        if len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self._sample[slot] = value

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-quantile of the sample (NaN when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._sample:
            return math.nan
        ordered = sorted(self._sample)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def fork(self) -> "QuantileReservoir":
        """Independent copy, RNG state included."""
        clone = QuantileReservoir(self.capacity)
        clone._sample = list(self._sample)
        clone._seen = self._seen
        clone._rng.setstate(self._rng.getstate())
        return clone


class GroupAccumulator:
    """O(1) running aggregates over one group of completed jobs.

    Accumulates in observation order with ``+=``, which is bit-identical
    to the batch path's sequential ``sum`` over the same values.
    """

    __slots__ = (
        "count",
        "sum_slowdown",
        "sum_turnaround",
        "sum_wait",
        "max_turnaround",
        "max_slowdown",
    )

    def __init__(self) -> None:
        self.count = 0
        self.sum_slowdown = 0.0
        self.sum_turnaround = 0.0
        self.sum_wait = 0.0
        self.max_turnaround = -math.inf
        self.max_slowdown = -math.inf

    def observe(self, slowdown: float, turnaround: float, wait: float) -> None:
        """Fold one job's metric values in."""
        self.count += 1
        self.sum_slowdown += slowdown
        self.sum_turnaround += turnaround
        self.sum_wait += wait
        if turnaround > self.max_turnaround:
            self.max_turnaround = turnaround
        if slowdown > self.max_slowdown:
            self.max_slowdown = slowdown

    def summary(self) -> MetricSummary:
        """The group's :class:`MetricSummary` (empty sentinel at count 0)."""
        if self.count == 0:
            return MetricSummary.empty()
        return MetricSummary(
            count=self.count,
            mean_bounded_slowdown=self.sum_slowdown / self.count,
            mean_turnaround=self.sum_turnaround / self.count,
            mean_wait=self.sum_wait / self.count,
            max_turnaround=self.max_turnaround,
            max_bounded_slowdown=self.max_slowdown,
        )

    def fork(self) -> "GroupAccumulator":
        clone = GroupAccumulator()
        for name in self.__slots__:
            setattr(clone, name, getattr(self, name))
        return clone


class StreamingMetrics:
    """Online :class:`RunMetrics` accumulation with bounded memory.

    The engine-facing sink protocol: :meth:`observe` per completion,
    :meth:`fork` on snapshot/resume, :attr:`watched_records`, and
    :meth:`run_metrics` at finalize.  See the module docstring for the
    memory bound and the float-identity argument.
    """

    def __init__(
        self,
        *,
        reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        reservoir_seed: int = 0,
        watch_ids: Iterable[int] = (),
    ) -> None:
        self._overall = GroupAccumulator()
        self._by_category = {c: GroupAccumulator() for c in Category}
        self._by_quality = {q: GroupAccumulator() for q in EstimateQuality}
        self._wait_reservoir = QuantileReservoir(reservoir_capacity, reservoir_seed)
        self._slowdown_reservoir = QuantileReservoir(
            reservoir_capacity, reservoir_seed + 1
        )
        self._watch_ids: set[int] = set(watch_ids)
        self._watched: dict[int, CompletedJob] = {}
        self._min_submit = math.inf
        self._max_finish = -math.inf

    # -- sink protocol --------------------------------------------------------

    def observe(self, record: CompletedJob) -> None:
        """Fold one completion into the aggregates (and maybe retain it)."""
        slowdown = record.bounded_slowdown
        turnaround = record.turnaround
        wait = record.wait
        self._overall.observe(slowdown, turnaround, wait)
        self._by_category[categorize(record.job)].observe(slowdown, turnaround, wait)
        self._by_quality[estimate_quality(record.job)].observe(
            slowdown, turnaround, wait
        )
        self._wait_reservoir.observe(wait)
        self._slowdown_reservoir.observe(slowdown)
        if record.job.submit_time < self._min_submit:
            self._min_submit = record.job.submit_time
        if record.finish_time > self._max_finish:
            self._max_finish = record.finish_time
        if record.job.job_id in self._watch_ids:
            self._watched[record.job.job_id] = record

    def fork(self) -> "StreamingMetrics":
        """Independent copy for a snapshot or a forked branch."""
        clone = StreamingMetrics()
        clone._overall = self._overall.fork()
        clone._by_category = {c: a.fork() for c, a in self._by_category.items()}
        clone._by_quality = {q: a.fork() for q, a in self._by_quality.items()}
        clone._wait_reservoir = self._wait_reservoir.fork()
        clone._slowdown_reservoir = self._slowdown_reservoir.fork()
        clone._watch_ids = set(self._watch_ids)
        clone._watched = dict(self._watched)
        clone._min_submit = self._min_submit
        clone._max_finish = self._max_finish
        return clone

    @property
    def watched_records(self) -> tuple[CompletedJob, ...]:
        """The watched records that have completed, in completion order."""
        return tuple(self._watched.values())

    def run_metrics(
        self, *, utilization: float = math.nan, makespan: float | None = None
    ) -> RunMetrics:
        """Materialize a :class:`RunMetrics` from the accumulated state.

        The aggregates are the batch path's (bit-identical floats, see the
        module docstring); only the watched records are attached.
        """
        return RunMetrics(
            overall=self._overall.summary(),
            by_category={c: a.summary() for c, a in self._by_category.items()},
            by_estimate_quality={
                q: a.summary() for q, a in self._by_quality.items()
            },
            utilization=utilization,
            makespan=makespan if makespan is not None else self.makespan,
            records=self.watched_records,
        )

    # -- observation-side API -------------------------------------------------

    def watch(self, job_id: int) -> None:
        """Retain the record of ``job_id`` when it completes (the escape
        hatch for the handful of jobs a query is actually about)."""
        self._watch_ids.add(job_id)

    def watched_record(self, job_id: int) -> CompletedJob | None:
        """The retained record for a watched job, or None if not finished."""
        return self._watched.get(job_id)

    @property
    def count(self) -> int:
        """Jobs observed so far."""
        return self._overall.count

    @property
    def makespan(self) -> float:
        """Span from earliest observed submission to latest finish."""
        if self._overall.count == 0:
            return 0.0
        return self._max_finish - self._min_submit

    @property
    def records_held(self) -> int:
        """Per-job records currently retained — the O(1)-memory witness.

        Only watched records are held (the fixed-capacity reservoirs are
        value samples, not records), independent of how many jobs streamed
        through.
        """
        return len(self._watched)

    def overall_summary(self) -> MetricSummary:
        """Running overall aggregates without materializing a RunMetrics."""
        return self._overall.summary()

    def wait_quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of job wait times."""
        return self._wait_reservoir.quantile(q)

    def slowdown_quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of bounded slowdowns."""
        return self._slowdown_reservoir.quantile(q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamingMetrics count={self.count} "
            f"records_held={self.records_held}>"
        )
