"""Outside-in span tracer for the traced run of the e2e benchmark.

The package under test carries no instrumentation, so the traced run
wraps its public entry points from here, at class/module level, before
the workload starts.  Every call through a wrapped name records one span
``(name, start, end, parent)`` in memory; counts are taken at the same
boundary by small hooks.  Afterwards :meth:`Tracer.table` folds spans
into per-name and per-layer self time (a span's duration minus the part
its child spans cover) and :meth:`Tracer.write_chrome_trace` dumps them
as Chrome trace-event JSON (opens in Perfetto / ``chrome://tracing``).

Timed runs never import this module.  A target that no longer exists is
reported in :attr:`Tracer.missing` and skipped — never a crash — so a
later PR that deletes or renames a layer shows up as a warning and a
zero, not as a broken benchmark.  The tracer keeps one span stack, so it
only describes single-threaded work; every traced body is.

Target grammar, ``(layer, module, spec, hook)``:

* ``"name"`` — a module-level function (also re-bound in every loaded
  ``repro`` module, and every module-level dict, that holds the same
  function object: ``from x import name`` copies and registries);
* ``"Class.method"`` — one method (plain, static or class method);
* ``"Class.*"`` — every public function defined on the class;
* ``"Class+.method"`` — the method wherever the class or any loaded
  subclass defines it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

__all__ = ["TARGETS", "LAYERS", "Tracer", "per_layer_metrics"]

_EVENT_PASS = ("on_arrival", "on_finish", "on_wakeup")
_PASS = _EVENT_PASS + ("poke",)
_NOTIFY = ("notify_started", "notify_finished", "cancel")


def _count(key, amount):
    """Hook factory: add ``amount(args, kwargs, result)`` to ``counts[key]``."""

    def hook(counts, args, kwargs, result):
        counts[key] = counts.get(key, 0) + amount(args, kwargs, result)

    return hook


def _report_hook(counts, args, kwargs, result):
    """After ``CellExecutor.execute``: fold the batch's ExecutionReport."""
    report = args[0].last_report
    for key, value in (
        ("exec.executor.sim_seconds", report.sim_seconds),
        ("exec.chains.forks", report.chain_forks),
        ("exec.chains.chained_cells", report.chained_cells),
        ("exec.chains.fallbacks", report.chain_fallbacks),
    ):
        counts[key] = counts.get(key, 0) + value


def _get_many_hook(counts, args, kwargs, result):
    counts["exec.store.hits"] = counts.get("exec.store.hits", 0) + len(result)
    counts["exec.store.misses"] = (
        counts.get("exec.store.misses", 0) + len(args[1]) - len(result)
    )


_STARTED = _count("sched.backfill.jobs_started", lambda a, k, r: len(r))
# A subclass pass that calls super() nests inside its own layer: count the
# started jobs at the outermost pass only, so none is counted twice.
_STARTED.outermost_only = True
_JOBS_DONE = lambda key: _count(key, lambda a, k, r: len(r.metrics.records))  # noqa: E731

#: Every wrapped entry point.  Layers are the package's modules.
TARGETS = [
    ("cli", "repro.cli", "main", None),
    ("workload.generators", "repro.workload.generators.base", "WorkloadGenerator+.generate",
     _count("workload.generators.jobs", lambda a, k, r: len(r))),
    ("workload.generators", "repro.experiments.runner", "base_workload_table", None),
    ("workload.transforms", "repro.workload.transforms", "scale_load", None),
    ("workload.transforms", "repro.workload.transforms", "apply_estimates", None),
    ("workload.transforms", "repro.workload.transforms", "truncate", None),
    ("workload.swf", "repro.workload.swf", "read_swf_table",
     _count("workload.swf.table_rows", lambda a, k, r: len(r))),
    ("workload.swf", "repro.workload.swf", "read_swf",
     _count("workload.swf.row_rows", lambda a, k, r: len(r))),
    ("workload.swf", "repro.workload.swf", "write_swf", None),
    ("sim.feed", "repro.sim.feed", "make_feed", None),
    ("sim.feed", "repro.sim.feed", "RowArrivalFeed.materialize",
     _count("sim.feed.jobs_materialized", lambda a, k, r: len(r))),
    ("sim.feed", "repro.sim.feed", "TableArrivalFeed.materialize",
     _count("sim.feed.jobs_materialized", lambda a, k, r: len(r))),
    ("sim.engine", "repro.sim.engine", "simulate", None),
    ("sim.engine", "repro.sim.engine", "Simulator.__init__", None),
    ("sim.engine", "repro.sim.engine", "Simulator.run", None),
    ("sim.engine", "repro.sim.engine", "Simulator.drain", None),
    ("sim.engine", "repro.sim.engine", "Simulator.run_until", None),
    ("sim.engine", "repro.sim.engine", "Simulator.run_until_time", None),
    ("sim.engine", "repro.sim.engine", "Simulator.extend_workload", None),
    ("sim.engine", "repro.sim.engine", "Simulator.snapshot", None),
    ("sim.engine", "repro.sim.engine", "Simulator.resume", None),
    *[("sched.backfill", "repro.sched.base", f"Scheduler+.{name}", _STARTED) for name in _PASS],
    *[("sched.backfill", "repro.sched.base", f"Scheduler+.{name}", None) for name in _NOTIFY],
    ("sched.priority", "repro.sched.priority.policies", "PriorityPolicy+.sort", None),
    ("sched.profile", "repro.sched.profile", "Profile.claim",
     _count("sched.profile.claims", lambda a, k, r: 1)),
    ("sched.profile", "repro.sched.profile", "Profile.claim_many",
     _count("sched.profile.claims", lambda a, k, r: len(r))),
    ("sched.profile", "repro.sched.profile", "Profile.*", None),
    ("sched.profile", "repro.sched.profile", "fits_mask", None),
    ("sched.profile", "repro.sched.profile", "finishes_by_mask", None),
    ("sched.profile", "repro.sched.profile", "fitting_prefix_count", None),
    ("metrics.collector", "repro.metrics.collector", "summarize", None),
    ("metrics.streaming", "repro.metrics.streaming", "StreamingMetrics.observe", None),
    ("metrics.streaming", "repro.metrics.streaming", "StreamingMetrics.run_metrics", None),
    ("metrics.streaming", "repro.metrics.streaming", "StreamingMetrics.fork", None),
    ("exec.executor", "repro.exec.executor", "CellExecutor.execute", _report_hook),
    ("exec.executor", "repro.exec.executor", "simulate_cell", None),
    ("exec.chains", "repro.exec.chains", "plan_chains", None),
    ("exec.chains", "repro.exec.chains", "run_chain", None),
    ("exec.chains", "repro.exec.chains", "simulate_chunk_chained", None),
    ("exec.store", "repro.exec.store", "ResultStore.get_many", _get_many_hook),
    ("exec.store", "repro.exec.store", "ResultStore.put_many", None),
    ("exec.store", "repro.exec.store", "ResultStore.resolve_many", None),
    ("exec.serialize", "repro.exec.serialize", "metrics_to_payload", None),
    ("exec.serialize", "repro.exec.serialize", "metrics_from_payload", None),
    ("exec.queue", "repro.exec.queue", "CellQueue.enqueue", None),
    ("exec.queue", "repro.exec.queue", "CellQueue.claim",
     _count("exec.queue.claims", lambda a, k, r: len(r))),
    ("exec.queue", "repro.exec.queue", "CellQueue.complete", None),
    ("exec.queue", "repro.exec.queue", "CellQueue.renew", None),
    ("exec.queue", "repro.exec.queue", "CellQueue.stats", None),
    ("exec.queue", "repro.exec.queue", "CellQueue.states_for", None),
    ("exec.dist", "repro.exec.dist", "DistExecutor.execute", _report_hook),
    ("exec.dist", "repro.exec.dist", "run_worker", None),
    ("serve.session", "repro.serve.session", "Session.submit", None),
    ("serve.session", "repro.serve.session", "Session.advance", None),
    ("serve.session", "repro.serve.session", "Session.branch", None),
    ("serve.session", "repro.serve.session", "SessionBranch.what_if", None),
    ("serve.session", "repro.serve.session", "SessionBranch.forecast", None),
    ("serve.protocol", "repro.serve.protocol", "job_from_payload", None),
    ("serve.protocol", "repro.serve.protocol", "what_if_to_payload", None),
    ("serve.protocol", "repro.serve.protocol", "queue_forecast_to_payload", None),
    ("analysis", "repro.analysis.report", "ReportWriter.add", None),
    ("analysis", "repro.analysis.report", "ReportWriter.finalize", None),
    ("experiments", "repro.experiments.registry", "run_experiment", None),
    ("experiments", "repro.experiments.registry", "collect_cells", None),
    ("experiments", "repro.experiments.runner", "make_workload_table", None),
    ("experiments", "repro.experiments.runner", "make_scheduler", None),
    ("grid.engine", "repro.grid.engine", "GridSimulator.run", _JOBS_DONE("grid.engine.jobs")),
    ("preempt.engine", "repro.preempt.engine", "PreemptiveSimulator.run",
     _JOBS_DONE("preempt.engine.jobs")),
]

LAYERS = tuple(dict.fromkeys(target[0] for target in TARGETS))

#: Spans written to the Chrome trace file; the rest stay in the table.
CHROME_TRACE_SPAN_LIMIT = 250_000


def _all_subclasses(cls):
    seen, stack = [], [cls]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.append(current)
            stack.extend(current.__subclasses__())
    return seen


class Tracer:
    """Wraps :data:`TARGETS`, records spans, folds them into self times."""

    def __init__(self, workload: str = "", run_id: str = "") -> None:
        self.workload = workload
        self.run_id = run_id
        self.names: list[str] = []  # span name per name id ("layer:qualname")
        self.layer_of: list[str] = []  # layer per name id
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []
        self._patched: set = set()  # (class, attr) already wrapped

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, fn, layer: str, qualname: str, hook):
        name_id = len(self.names)
        self.names.append(f"{layer}:{qualname}")
        self.layer_of.append(layer)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        layer_of = self.layer_of
        outermost_only = getattr(hook, "outermost_only", False)

        if hook is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                span = [name_id, clock(), 0.0, parent]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if not outermost_only or parent < 0 or layer_of[spans[parent][0]] != layer:
                    hook(counts, args, kwargs, result)
                return result

        return traced

    def _patch_class(self, cls, attr: str, layer: str, hook) -> None:
        if (cls, attr) in self._patched:
            return  # an explicit target outranks a later "Class.*"
        raw = cls.__dict__[attr]
        qualname = f"{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._wrapper(raw.__func__, layer, qualname, hook))
        elif isinstance(raw, types.FunctionType):
            if getattr(raw, "__isabstractmethod__", False):
                return
            new = self._wrapper(raw, layer, qualname, hook)
        else:
            return
        setattr(cls, attr, new)
        self._patched.add((cls, attr))
        self._undo.append((setattr, cls, attr, raw))

    def _patch_function(self, module, name: str, layer: str, hook) -> None:
        original = getattr(module, name)
        wrapped = self._wrapper(original, layer, name, hook)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                    self._undo.append((setattr, other, key, original))
                elif isinstance(value, dict):
                    for dict_key, dict_value in list(value.items()):
                        if dict_value is original:
                            value[dict_key] = wrapped
                            self._undo.append((dict.__setitem__, value, dict_key, original))

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; unknown ones land in :attr:`missing`."""
        for layer, module_name, spec, hook in targets:
            label = f"{module_name}:{spec}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            head, _, attr = spec.partition(".")
            if not attr:
                if isinstance(getattr(module, head, None), types.FunctionType):
                    self._patch_function(module, head, layer, hook)
                else:
                    self.missing.append(label)
                continue
            base = getattr(module, head.rstrip("+"), None)
            if not isinstance(base, type):
                self.missing.append(label)
                continue
            classes = _all_subclasses(base) if head.endswith("+") else [base]
            if attr == "*":
                pairs = [
                    (base, name) for name in base.__dict__ if not name.startswith("_")
                ]
            else:
                pairs = [(cls, attr) for cls in classes if attr in cls.__dict__]
            if not pairs:
                self.missing.append(label)
            for cls, name in pairs:
                self._patch_class(cls, name, layer, hook)

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    def root(self, name: str = "harness"):
        """Context manager: the span everything else nests under."""
        tracer = self

        class _Root:
            def __enter__(self):
                name_id = len(tracer.names)
                tracer.names.append(f"harness:{name}")
                tracer.layer_of.append("harness")
                self.span = [name_id, time.perf_counter(), 0.0, -1]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(self.span)

            def __exit__(self, *exc):
                self.span[2] = time.perf_counter()
                tracer._stack.pop()
                return False

        return _Root()

    # -- folding --------------------------------------------------------------

    def table(self) -> dict:
        """Per-name and per-layer ``self_s`` / ``total_s`` / ``calls``.

        ``self_s`` sums every span's self time.  ``total_s`` and
        ``outer_calls`` count only spans whose parent is not of the same
        name (resp. layer), so a pass that calls ``super()`` or
        ``simulate()`` -> ``Simulator.run()`` is not added twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        zero = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "outer_calls": 0}
        by_name: dict[str, dict] = {}
        by_layer: dict[str, dict] = {}
        for index, (name_id, start, end, parent) in enumerate(spans):
            duration = end - start
            layer = self.layer_of[name_id]
            parent_name = spans[parent][0] if parent >= 0 else -1
            parent_layer = self.layer_of[parent_name] if parent >= 0 else ""
            for row, outer in (
                (by_name.setdefault(self.names[name_id], dict(zero)), parent_name != name_id),
                (by_layer.setdefault(layer, dict(zero)), parent_layer != layer),
            ):
                row["self_s"] += duration - child[index]
                row["calls"] += 1
                if outer:
                    row["total_s"] += duration
                    row["outer_calls"] += 1
        return {"names": by_name, "layers": by_layer, "counts": dict(self.counts)}

    def write_chrome_trace(self, path) -> int:
        """Write spans as Chrome trace events; returns how many were kept.

        Over :data:`CHROME_TRACE_SPAN_LIMIT` spans the longest are kept,
        so the file stays openable and the hot leaf calls are the ones
        dropped; the self-time table always covers every span.
        """
        spans = self.spans
        keep = range(len(spans))
        if len(spans) > CHROME_TRACE_SPAN_LIMIT:
            keep = sorted(
                sorted(keep, key=lambda i: spans[i][1] - spans[i][2])[
                    :CHROME_TRACE_SPAN_LIMIT
                ]
            )
        origin = spans[0][1] if spans else 0.0
        events = [
            {
                "name": self.names[spans[i][0]],
                "cat": self.layer_of[spans[i][0]],
                "ph": "X",
                "ts": (spans[i][1] - origin) * 1e6,
                "dur": (spans[i][2] - spans[i][1]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": spans[i][3]},
            }
            for i in keep
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": self.workload,
                "run_id": self.run_id,
                "spans_recorded": len(spans),
                "spans_written": len(events),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(events)


def per_layer_metrics(table: dict, body_s: float, extra: dict) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) for every per-layer metric of one traced round.

    ``extra`` carries what only the harness or the body can see (CLI
    start-up timings, store bytes, in-process latencies).  A layer the
    workload never enters reads 0 - that zero is the "predicted no
    change" half of the interaction table in README.md.
    """
    names, layers, counts = table["names"], table["layers"], table["counts"]

    def name_sum(field: str, *suffixes: str) -> float:
        return sum(
            row[field] for name, row in names.items() if name.split(":", 1)[1].endswith(suffixes)
        )

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        row = layers.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.share"] = (ratio(row["self_s"], body_s), "frac")

    def passes(methods: tuple[str, ...]) -> int:
        return sum(
            row["outer_calls"]
            for name, row in names.items()
            if name.startswith("sched.backfill:") and name.endswith(methods)
        )

    engine = layers.get("sim.engine", {"self_s": 0.0, "total_s": 0.0})
    # Arrival, finish and timer events as the schedulers received them:
    # counted where the work happens, so a forked branch adds only the
    # events it really processed (a result's events_processed would
    # re-report its whole history).
    events = passes(_EVENT_PASS)
    started = counts.get("sched.backfill.jobs_started", 0)
    claims = counts.get("sched.profile.claims", 0)
    executes = name_sum("total_s", "CellExecutor.execute", "DistExecutor.execute")
    out.update({
        "cli.import_s": (extra.get("cli_import_s", 0.0), "s"),
        "cli.startup_s": (extra.get("cli_startup_s", 0.0), "s"),
        "workload.generators.jobs_per_s": (
            ratio(counts.get("workload.generators.jobs", 0), name_sum("total_s", ".generate")), "1/s"),
        "workload.swf.table_rows_per_s": (
            ratio(counts.get("workload.swf.table_rows", 0), name_sum("total_s", "read_swf_table")), "1/s"),
        "workload.swf.row_rows_per_s": (
            ratio(counts.get("workload.swf.row_rows", 0), name_sum("total_s", "read_swf")), "1/s"),
        "sim.feed.jobs_materialized": (counts.get("sim.feed.jobs_materialized", 0), "count"),
        "sim.engine.events": (events, "count"),
        "sim.engine.job_events_per_s": (ratio(events, engine["total_s"]), "1/s"),
        "sim.engine.us_per_event": (ratio(engine["self_s"] * 1e6, events), "us"),
        "sim.engine.snapshot_s": (name_sum("total_s", "Simulator.snapshot"), "s"),
        "sim.engine.resume_s": (name_sum("total_s", "Simulator.resume"), "s"),
        "sched.backfill.jobs_started": (started, "count"),
        "sched.backfill.started_per_call": (ratio(started, passes(_PASS)), "ratio"),
        "sched.profile.claim_many_calls": (name_sum("calls", "Profile.claim_many"), "count"),
        "sched.profile.claims": (claims, "count"),
        "sched.profile.rebuild_calls": (
            name_sum("calls", "Profile.rebuild_into", "Profile.from_running_jobs"), "count"),
        "sched.profile.find_start_calls": (
            name_sum("calls", "Profile.find_start", "Profile.find_start_many"), "count"),
        "sched.profile.claims_per_job": (ratio(claims, started), "ratio"),
        "exec.executor.overhead_frac": (
            ratio(executes - counts.get("exec.executor.sim_seconds", 0.0), executes), "frac"),
        "exec.chains.forks": (counts.get("exec.chains.forks", 0), "count"),
        "exec.chains.chained_cells": (counts.get("exec.chains.chained_cells", 0), "count"),
        "exec.chains.fallbacks": (counts.get("exec.chains.fallbacks", 0), "count"),
        "exec.store.resolve_s": (name_sum("total_s", "ResultStore.resolve_many"), "s"),
        "exec.store.load_s": (name_sum("total_s", "ResultStore.get_many"), "s"),
        "exec.store.put_s": (name_sum("total_s", "ResultStore.put_many"), "s"),
        "exec.store.hits": (counts.get("exec.store.hits", 0), "count"),
        "exec.store.misses": (counts.get("exec.store.misses", 0), "count"),
        "exec.store.bytes_on_disk": (extra.get("bytes_on_disk", 0), "bytes"),
        "exec.queue.enqueue_s": (name_sum("total_s", "CellQueue.enqueue"), "s"),
        "exec.queue.claim_s": (name_sum("total_s", "CellQueue.claim"), "s"),
        "exec.queue.complete_s": (name_sum("total_s", "CellQueue.complete"), "s"),
        "exec.queue.claims": (counts.get("exec.queue.claims", 0), "count"),
        "exec.queue.retries": (extra.get("retries", 0), "count"),
        "exec.queue.poisoned": (extra.get("poisoned", 0), "count"),
        "exec.dist.two_worker_cells_per_s": (extra.get("two_worker_cells_per_s") or 0.0, "1/s"),
        "serve.session.whatif_inproc_p50_ms": (extra.get("whatif_inproc_p50_ms", 0.0), "ms"),
        "serve.session.forecast_inproc_p50_ms": (extra.get("forecast_inproc_p50_ms", 0.0), "ms"),
        "serve.session.fork_s": (name_sum("total_s", "Session.branch"), "s"),
        "serve.session.drain_s": (
            name_sum("total_s", "SessionBranch.what_if", "SessionBranch.forecast"), "s"),
        "serve.session.submit_s": (name_sum("total_s", "Session.submit"), "s"),
        "serve.session.advance_s": (name_sum("total_s", "Session.advance"), "s"),
        "serve.http.tax_p50_ms": (extra.get("http_tax_p50_ms", 0.0), "ms"),
        "grid.engine.jobs": (counts.get("grid.engine.jobs", 0), "count"),
        "preempt.engine.jobs": (counts.get("preempt.engine.jobs", 0), "count"),
        "trace.unattributed_frac": (
            ratio(layers.get("harness", {"self_s": 0.0})["self_s"], body_s), "frac"),
    })
    return out
