"""Workload/scheduler factories and the workload caches.

A *cell* is one simulation: (workload spec) x (scheduler kind, priority).
Several experiments share cells — e.g. the exact-estimate conservative run
of Figure 1 is also the baseline of Figure 2 and Table 4 — so results are
memoized.  Cell identity and memoization now live in :mod:`repro.exec`:
:class:`repro.exec.Cell` is the unit of work, :func:`repro.exec.run_cells`
the batch entry point, and the default :class:`repro.exec.ResultStore`
owns both the in-process layer and the optional on-disk cache.

Workloads (the memory hog — thousands of Job objects each) are memoized
here behind a bounded LRU so a long ``experiment all`` sweep cannot grow
without bound.

Workload construction is columnar: the expensive part — generating a
trace's jobs — is memoized once per ``(trace, n_jobs, seed)`` as a
:class:`~repro.workload.table.JobTable` (:func:`base_workload_table`),
and each spec's load scale and estimate model are then derived from that
table with vectorized transforms (:func:`make_workload_table`).  The
result is float-identical to the original row-at-a-time path, which the
differential suite keeps in ``tests/oracles/row_pipeline.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.experiments.config import (
    TRACE_QUEUE_LIMITS,
    USER_MODEL_MAX_FACTOR,
    USER_MODEL_WELL_FRACTION,
    WorkloadSpec,
)
from repro.sched.backfill.conservative import ConservativeScheduler
from repro.sched.backfill.depth import DepthScheduler
from repro.sched.backfill.easy import EasyScheduler
from repro.sched.backfill.lookahead import LookaheadScheduler
from repro.sched.backfill.multiqueue import MultiQueueScheduler
from repro.sched.backfill.nobf import FCFSScheduler
from repro.sched.backfill.selective import SelectiveScheduler
from repro.sched.backfill.slack import SlackScheduler
from repro.sched.base import Scheduler
from repro.sched.priority.policies import policy_by_name
from repro.workload.estimates import (
    ClampedEstimate,
    EstimateModel,
    ExactEstimate,
    MultiplicativeEstimate,
    UserEstimateModel,
)
from repro.workload.generators.ctc import CTCGenerator
from repro.workload.generators.lublin import LublinGenerator
from repro.workload.generators.sdsc import SDSCGenerator
from repro.workload.job import Workload
from repro.workload.table import JobTable
from repro.workload.transforms import apply_estimates, scale_load

__all__ = [
    "ExperimentResult",
    "make_workload",
    "make_workload_table",
    "base_workload_table",
    "make_estimate_model",
    "make_scheduler",
    "cached_workload",
    "clear_cache",
]

#: Offset so the estimate-model RNG stream never collides with the
#: workload-generation stream for the same seed.
_ESTIMATE_SEED_OFFSET = 10_007


@dataclass
class ExperimentResult:
    """What one experiment produces."""

    experiment_id: str
    title: str
    tables: dict[str, object] = field(default_factory=dict)  # name -> Table
    charts: dict[str, str] = field(default_factory=dict)  # name -> rendered text
    findings: dict[str, bool] = field(default_factory=dict)  # trend -> holds?
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full text report: tables, charts, then the trend checklist."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for name, table in self.tables.items():
            parts.append(table.render(title=f"-- {name}"))
        for name, chart in self.charts.items():
            parts.append(f"-- {name}\n{chart}")
        if self.findings:
            parts.append("-- trend checks")
            for trend, holds in self.findings.items():
                parts.append(f"  [{'x' if holds else ' '}] {trend}")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    @property
    def all_trends_hold(self) -> bool:
        return all(self.findings.values()) if self.findings else True


def make_estimate_model(spec: WorkloadSpec) -> EstimateModel:
    """The estimate model a spec's ``estimate`` regime denotes."""
    if spec.estimate == "exact":
        return ExactEstimate()
    if spec.estimate == "r2":
        return MultiplicativeEstimate(2.0)
    if spec.estimate == "r4":
        return MultiplicativeEstimate(4.0)
    if spec.estimate == "user":
        return ClampedEstimate(
            UserEstimateModel(
                well_fraction=USER_MODEL_WELL_FRACTION,
                max_factor=USER_MODEL_MAX_FACTOR,
            ),
            TRACE_QUEUE_LIMITS[spec.trace],
        )
    raise ConfigurationError(f"unknown estimate regime {spec.estimate!r}")


def _generator_for(trace: str):
    if trace == "CTC":
        return CTCGenerator()
    if trace == "SDSC":
        return SDSCGenerator()
    if trace == "LUBLIN":
        return LublinGenerator()
    # pragma: no cover - guarded by WorkloadSpec validation
    raise ConfigurationError(f"unknown trace {trace!r}")


#: Upper bound on memoized base (pre-transform) tables.  Generation
#: dominates workload-construction cost; a sweep varies load scale and
#: estimate regime over few (trace, n_jobs, seed) triples, so a small
#: LRU captures nearly every reuse.
BASE_TABLE_CACHE_LIMIT = 8

_base_table_cache: OrderedDict[tuple[str, int, int], JobTable] = OrderedDict()


def base_workload_table(trace: str, n_jobs: int, seed: int) -> JobTable:
    """The generated (pre-transform) workload as a columnar table, memoized.

    This is the expensive step of :func:`make_workload`; every spec that
    shares a ``(trace, n_jobs, seed)`` triple derives its load scale and
    estimates from this one table.
    """
    key = (trace, n_jobs, seed)
    table = _base_table_cache.get(key)
    if table is None:
        table = _generator_for(trace).generate_table(n_jobs, seed=seed)
        _base_table_cache[key] = table
        while len(_base_table_cache) > BASE_TABLE_CACHE_LIMIT:
            _base_table_cache.popitem(last=False)
    else:
        _base_table_cache.move_to_end(key)
    return table


def make_workload_table(spec: WorkloadSpec) -> JobTable:
    """Columnar :func:`make_workload`: derive the spec's conditions from
    the memoized base table with vectorized transforms."""
    table = base_workload_table(spec.trace, spec.n_jobs, spec.seed)
    if spec.load_scale != 1.0:
        table = scale_load(table, spec.load_scale)
    model = make_estimate_model(spec)
    if not isinstance(model, ExactEstimate):
        table = apply_estimates(table, model, seed=spec.seed + _ESTIMATE_SEED_OFFSET)
    return table


def make_workload(spec: WorkloadSpec) -> Workload:
    """Generate, load-scale, and estimate-stamp the workload a spec denotes.

    Goes through the columnar pipeline (:func:`make_workload_table`).
    """
    return make_workload_table(spec).to_workload()


#: Scheduler kinds understood by the harness.
SCHEDULER_KINDS = ("nobf", "cons", "easy", "sel", "look", "slack", "depth", "mq")


def make_scheduler(kind: str, priority: str = "FCFS", **options) -> Scheduler:
    """Build a scheduler by kind and priority-policy name.

    ``options`` forward to the scheduler constructor (e.g.
    ``compression=`` for conservative, ``xfactor_threshold=`` for
    selective).
    """
    policy = policy_by_name(priority)
    if kind == "nobf":
        return FCFSScheduler(policy, **options)
    if kind == "cons":
        return ConservativeScheduler(policy, **options)
    if kind == "easy":
        return EasyScheduler(policy, **options)
    if kind == "sel":
        return SelectiveScheduler(policy, **options)
    if kind == "look":
        return LookaheadScheduler(policy, **options)
    if kind == "slack":
        return SlackScheduler(policy, **options)
    if kind == "depth":
        return DepthScheduler(policy, **options)
    if kind == "mq":
        return MultiQueueScheduler(policy, **options)
    raise ConfigurationError(
        f"unknown scheduler kind {kind!r}; expected one of {SCHEDULER_KINDS}"
    )


#: Upper bound on memoized workloads.  Workloads are the memory hog
#: (thousands of Job objects each); the LRU keeps the working set of a
#: full ``experiment all`` sweep while bounding a long-lived process.
WORKLOAD_CACHE_LIMIT = 32

_workload_cache: OrderedDict[WorkloadSpec, Workload] = OrderedDict()

_table_cache: OrderedDict[WorkloadSpec, JobTable] = OrderedDict()


def cached_table(spec: WorkloadSpec) -> JobTable:
    """Memoized :func:`make_workload_table`, bounded by an LRU of
    :data:`WORKLOAD_CACHE_LIMIT` entries.

    The table-native cache the executor simulates from: the simulator
    consumes the table directly, materializing ``Job`` objects lazily
    per arrival batch through the trusted constructor.
    """
    table = _table_cache.get(spec)
    if table is None:
        table = make_workload_table(spec)
        _table_cache[spec] = table
        while len(_table_cache) > WORKLOAD_CACHE_LIMIT:
            _table_cache.popitem(last=False)
    else:
        _table_cache.move_to_end(spec)
    return table


def cached_workload(spec: WorkloadSpec) -> Workload:
    """Memoized :func:`make_workload` in row form (compat surface).

    Delegates to :func:`cached_table` and memoizes the materialized row
    form separately so repeated hits stay free."""
    workload = _workload_cache.get(spec)
    if workload is None:
        workload = cached_table(spec).to_workload()
        _workload_cache[spec] = workload
        while len(_workload_cache) > WORKLOAD_CACHE_LIMIT:
            _workload_cache.popitem(last=False)
    else:
        _workload_cache.move_to_end(spec)
    return workload


def clear_cache() -> None:
    """Drop all memoized workloads and cell results (used by tests).

    Cell memoization has one owner — the default
    :class:`repro.exec.ResultStore` — whose in-memory layer is cleared
    here; persisted cache files are left alone.
    """
    from repro.exec import default_store

    _workload_cache.clear()
    _table_cache.clear()
    _base_table_cache.clear()
    default_store().clear_memory()
