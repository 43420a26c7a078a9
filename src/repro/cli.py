"""Command-line interface: ``python -m repro`` / ``repro-sched``.

Subcommands:

* ``experiment`` — run one (or all) of the paper's experiments and print
  the tables, charts, and trend checks.
* ``simulate`` — one-off simulation of a generated or SWF workload under a
  chosen scheduler, printing the metric summary.
* ``generate`` — emit a synthetic workload as an SWF file.
* ``report`` — run experiments and write a Markdown/CSV results directory.
* ``characterize`` — print a workload's characterization statistics.
* ``store`` — inspect and maintain a persistent result cache
  (``stats``, ``gc``).
* ``sweep`` — pre-simulate experiment grids into a result store; with
  ``--parallel N --cache-dir DIR`` (N >= 2) the misses go through DIR's
  work-stealing queue, which any number of ``repro worker`` processes
  pointed at DIR drain alongside the N local ones.
* ``worker`` — one queue-draining worker loop: claim chain-group
  leases, simulate, commit (see :mod:`repro.exec.dist`).
* ``queue`` — inspect and maintain a distributed sweep's queue table
  (``stats``, ``requeue``).
* ``serve`` — run a live scheduler session behind the HTTP/JSON layer
  (see :mod:`repro.serve`).
* ``list`` — list available experiments, schedulers, and priorities.

Flags shared between subcommands (the workload knobs, the experiment
grid, the execution layer) are declared once as argparse *parent
parsers* (:func:`_workload_parent`, :func:`_grid_parent`,
:func:`_execution_parent`, :func:`_estimate_parent`) so every
subcommand exposes the same spelling, defaults, and help text.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro._version import __version__
from repro.errors import ReproError
from repro.exec import (
    Cell,
    ExecConfig,
    ExecutionReport,
    run_cells,
    set_default_executor,
)
from repro.exec.queue import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS
from repro.experiments.config import DEFAULT_PARAMS, ExperimentParams
from repro.experiments.registry import EXPERIMENTS, collect_cells, run_experiment
from repro.experiments.runner import SCHEDULER_KINDS, make_scheduler, make_workload
from repro.experiments.config import WorkloadSpec
from repro.sched.priority.policies import PRIORITY_POLICIES
from repro.sim.engine import simulate
from repro.workload.swf import read_swf, write_swf

__all__ = ["main", "build_parser"]


_TRACE_CHOICES = ["CTC", "SDSC", "LUBLIN"]


def _workload_parent(*, jobs_default: int = 2500) -> argparse.ArgumentParser:
    """Parent parser: the single-workload knobs (``simulate`` /
    ``generate`` / ``characterize`` share one spelling of
    ``--trace/--jobs/--seed/--load-scale``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", default="CTC", choices=_TRACE_CHOICES)
    parent.add_argument("--jobs", type=int, default=jobs_default)
    parent.add_argument("--seed", type=int, default=1)
    parent.add_argument("--load-scale", type=float, default=1.0)
    return parent


def _estimate_parent() -> argparse.ArgumentParser:
    """Parent parser: the user-estimate model flag (simulate/generate)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--estimate", default="exact", choices=["exact", "r2", "r4", "user"]
    )
    return parent


def _grid_parent() -> argparse.ArgumentParser:
    """Parent parser: the experiment-grid knobs (``experiment`` /
    ``report`` share ``--jobs/--seeds/--load-scale/--traces``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=DEFAULT_PARAMS.n_jobs)
    parent.add_argument(
        "--seeds", type=int, nargs="+", default=list(DEFAULT_PARAMS.seeds)
    )
    parent.add_argument("--load-scale", type=float, default=DEFAULT_PARAMS.load_scale)
    parent.add_argument(
        "--traces", nargs="+", default=list(DEFAULT_PARAMS.traces),
        choices=_TRACE_CHOICES,
    )
    return parent


def _execution_parent() -> argparse.ArgumentParser:
    """Parent parser: the execution-layer flags shared by ``experiment``,
    ``report``, ``simulate``, and ``sweep``."""
    parent = argparse.ArgumentParser(add_help=False)
    _add_execution_flags(parent)
    return parent


def _add_execution_flags(subparser: argparse.ArgumentParser) -> None:
    """The execution-layer flag set (see :func:`_execution_parent`)."""
    subparser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="simulate cells over N queue-draining worker processes "
        "(default: 1, in-process)",
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist per-cell results in DIR's SQLite database and reuse "
        "them across invocations",
    )
    subparser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir: neither read nor write persisted results",
    )


def _configure_execution(args: argparse.Namespace):
    """Install the default executor described by the execution flags.

    The flags build a frozen :class:`~repro.exec.config.ExecConfig`
    (whose constructor validates them) and hand it to
    :func:`repro.exec.set_default_executor`.
    """
    if args.parallel < 1:
        raise ReproError(f"--parallel must be >= 1, got {args.parallel}")
    cache_dir = None if args.no_cache else args.cache_dir
    progress = _progress_printer() if sys.stderr.isatty() else None
    return set_default_executor(
        ExecConfig(parallel=args.parallel, cache_dir=cache_dir, progress=progress)
    )


def _progress_printer():
    def emit(report: ExecutionReport) -> None:
        sys.stderr.write(f"\r[exec] {report.render()}\x1b[K")
        if report.completed >= report.cells_total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return emit


def _finish_execution(executor) -> None:
    """Print the session summary to stderr, then release the executor."""
    session = executor.session
    if session.cells_total:
        print(f"[exec] {session.render()}", file=sys.stderr)
    _release_execution(executor)


def _release_execution(executor) -> None:
    """Close a command's executor — its database handles and, for a
    cache-less ``--parallel`` run, the temporary queue directory it
    owns — and put the lazy in-process default back."""
    executor.close()
    set_default_executor(None)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduction harness for 'Characterization of Backfilling "
            "Strategies for Parallel Job Scheduling' (ICPP 2002)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    workload_parent = _workload_parent()
    estimate_parent = _estimate_parent()
    grid_parent = _grid_parent()
    execution_parent = _execution_parent()

    exp = sub.add_parser(
        "experiment",
        help="run a paper experiment",
        parents=[grid_parent, execution_parent],
    )
    exp.add_argument(
        "id",
        nargs="?",
        default="all",
        help=f"experiment id ({', '.join(EXPERIMENTS)}) or 'all'",
    )

    sim = sub.add_parser(
        "simulate",
        help="simulate one workload/scheduler pair",
        parents=[workload_parent, estimate_parent, execution_parent],
    )
    sim.add_argument("--swf", help="read the workload from an SWF file instead")
    sim.add_argument("--scheduler", default="easy", choices=list(SCHEDULER_KINDS))
    sim.add_argument(
        "--priority", default="FCFS", choices=list(PRIORITY_POLICIES)
    )
    sim.add_argument(
        "--profile",
        nargs="?",
        const=25,
        type=int,
        default=None,
        metavar="N",
        help="cProfile the run and print the top N functions by cumulative "
        "time to stderr (default N: 25)",
    )

    gen = sub.add_parser(
        "generate",
        help="write a synthetic workload as SWF",
        parents=[workload_parent, estimate_parent],
    )
    gen.add_argument("output", help="destination .swf path")

    report = sub.add_parser(
        "report",
        help="run experiments and write a results directory",
        parents=[grid_parent, execution_parent],
    )
    report.add_argument("output", help="destination directory")
    report.add_argument(
        "ids", nargs="*", default=[], help="experiment ids (default: all)"
    )

    char = sub.add_parser(
        "characterize",
        help="print a workload's characterization statistics",
        parents=[workload_parent],
    )
    char.add_argument("--swf", help="characterize an SWF file instead")

    serve = sub.add_parser(
        "serve",
        help="run a live scheduler session behind an HTTP/JSON API",
    )
    serve.add_argument(
        "--procs", type=int, default=128, metavar="N",
        help="machine size the live session schedules onto (default: 128)",
    )
    serve.add_argument(
        "--scheduler", default="easy", choices=list(SCHEDULER_KINDS),
        help="primary policy answering queries (default: easy)",
    )
    serve.add_argument(
        "--priority", default="FCFS", choices=list(PRIORITY_POLICIES)
    )
    serve.add_argument(
        "--alternative", action="append", default=[], metavar="KIND[:PRIORITY]",
        help="extra policy fed the same job stream, queryable via "
        "policy=...; repeatable (e.g. --alternative cons)",
    )
    serve.add_argument(
        "--metrics", default="bounded", choices=["bounded", "exact"],
        help="metric accumulation: 'bounded' keeps O(1) state per session, "
        "'exact' retains every per-job record (default: bounded)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8537)
    serve.add_argument(
        "--name", default="live", help="session name (default: live)"
    )

    store = sub.add_parser(
        "store", help="inspect and maintain a persistent result cache"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    stats = store_sub.add_parser(
        "stats", help="print a cache directory's entry count and size"
    )
    stats.add_argument("cache_dir", help="the result-cache directory")

    gc = store_sub.add_parser(
        "gc", help="sweep a cache, dropping stale and corrupt entries"
    )
    gc.add_argument("cache_dir", help="the result-cache directory")
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )

    sweep = sub.add_parser(
        "sweep",
        help="pre-simulate experiment grids into a result store",
        parents=[grid_parent, execution_parent],
    )
    sweep.add_argument(
        "ids", nargs="*", default=[], help="experiment ids (default: all)"
    )

    worker = sub.add_parser(
        "worker", help="drain a distributed sweep's queue until empty"
    )
    worker.add_argument(
        "--queue",
        required=True,
        metavar="DIR",
        help="the queue directory: the --cache-dir of a "
        "'repro sweep --parallel N' run (N >= 2)",
    )
    worker.add_argument(
        "--lease-seconds",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        metavar="S",
        help="how long a claimed chain group stays owned before other "
        f"workers may steal it (default: {DEFAULT_LEASE_SECONDS:.0f})",
    )
    worker.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="lease grants per group before it is poisoned "
        f"(default: {DEFAULT_MAX_ATTEMPTS})",
    )
    worker.add_argument(
        "--owner",
        default=None,
        help="lease owner id (default: hostname:pid)",
    )
    worker.add_argument(
        "--batch-groups",
        type=int,
        default=4,
        metavar="N",
        help="chain groups claimed per lease transaction (default: 4)",
    )
    worker.add_argument(
        "--idle-seconds",
        type=float,
        default=0.0,
        metavar="S",
        help="linger this long for new work after the queue drains "
        "(default: 0, exit at drain — start the sweep first)",
    )

    queue = sub.add_parser(
        "queue", help="inspect and maintain a distributed sweep's queue"
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    qstats = queue_sub.add_parser(
        "stats", help="print lease-state counts and poisoned cells"
    )
    qstats.add_argument("queue_dir", help="the queue directory")
    qrequeue = queue_sub.add_parser(
        "requeue", help="reset poisoned groups to pending for another try"
    )
    qrequeue.add_argument("queue_dir", help="the queue directory")

    sub.add_parser("list", help="list experiments, schedulers, priorities")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    params = ExperimentParams(
        n_jobs=args.jobs,
        seeds=tuple(args.seeds),
        load_scale=args.load_scale,
        traces=tuple(args.traces),
    )
    ids = list(EXPERIMENTS) if args.id == "all" else [args.id]
    executor = _configure_execution(args)
    # Fan the union of every requested experiment's declared cells out
    # first so shared cells are simulated once, with maximum parallelism.
    run_cells(collect_cells(ids, params))
    failures = 0
    for experiment_id in ids:
        started = time.perf_counter()
        result = run_experiment(experiment_id, params)
        elapsed = time.perf_counter() - started
        print(result.render())
        print()
        # Wall-clock is diagnostics, not experiment output: keep it on
        # stderr so stdout is byte-identical run to run (and serial vs
        # --parallel), which scripts and the acceptance checks rely on.
        print(f"({experiment_id} completed in {elapsed:.1f}s)", file=sys.stderr)
        if not result.all_trends_hold:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had trend checks that did not hold.")
    _finish_execution(executor)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    profiler = None
    if args.profile is not None:
        # Covers workload construction AND the event loop — per-cell
        # workload costs are exactly what hot-loop work chases, so
        # excluding them would hide the interesting part of the profile.
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    if args.swf:
        # SWF files are not describable as a WorkloadSpec, so this path
        # cannot go through the cell cache; simulate directly.
        workload = read_swf(args.swf)
        result = simulate(workload, make_scheduler(args.scheduler, args.priority))
        metrics = result.metrics
        workload_name = result.workload_name
        scheduler_name = result.scheduler_name
    else:
        spec = WorkloadSpec(
            trace=args.trace,
            n_jobs=args.jobs,
            seed=args.seed,
            load_scale=args.load_scale,
            estimate=args.estimate,
        )
        workload = make_workload(spec)
        workload_name = workload.name
        scheduler_name = make_scheduler(args.scheduler, args.priority).describe()
        # Route through the execution layer so --parallel/--cache-dir
        # behave exactly as in `experiment`
        # (a repeated invocation with a cache directory is a pure cache
        # hit).  Output is identical to the direct path: the cell worker
        # runs the same simulate() call.
        executor = _configure_execution(args)
        metrics = run_cells([Cell.make(spec, args.scheduler, args.priority)])[0]
        _release_execution(executor)
    if profiler is not None:
        import pstats

        profiler.disable()
        # Secondary "stdname" key pins the order of equal-time rows, so
        # back-to-back --profile runs diff cleanly.
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            "cumulative", "stdname"
        ).print_stats(args.profile)
    overall = metrics.overall
    print(f"workload : {workload_name} ({len(workload)} jobs, "
          f"{workload.max_procs} procs, offered load {workload.offered_load:.3f})")
    print(f"scheduler: {scheduler_name}")
    print(f"mean bounded slowdown : {overall.mean_bounded_slowdown:12.2f}")
    print(f"mean turnaround (s)   : {overall.mean_turnaround:12.0f}")
    print(f"mean wait (s)         : {overall.mean_wait:12.0f}")
    print(f"worst turnaround (s)  : {overall.max_turnaround:12.0f}")
    print(f"utilization           : {metrics.utilization:12.3f}")
    for category, summary in metrics.by_category.items():
        print(
            f"  {category.value}: n={summary.count:6d} "
            f"slowdown={summary.mean_bounded_slowdown:10.2f} "
            f"turnaround={summary.mean_turnaround:10.0f}"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = make_workload(
        WorkloadSpec(
            trace=args.trace,
            n_jobs=args.jobs,
            seed=args.seed,
            load_scale=args.load_scale,
            estimate=args.estimate,
        )
    )
    write_swf(workload, args.output)
    print(f"wrote {len(workload)} jobs to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportWriter

    params = ExperimentParams(
        n_jobs=args.jobs,
        seeds=tuple(args.seeds),
        load_scale=args.load_scale,
        traces=tuple(args.traces),
    )
    ids = args.ids or list(EXPERIMENTS)
    executor = _configure_execution(args)
    run_cells(collect_cells(ids, params))
    writer = ReportWriter(args.output)
    for experiment_id in ids:
        started = time.perf_counter()
        result = run_experiment(experiment_id, params)
        writer.add(result)
        elapsed = time.perf_counter() - started
        print(f"{experiment_id}: written")
        # Timing goes to stderr: stdout stays byte-identical run to run.
        print(f"({experiment_id} written in {elapsed:.1f}s)", file=sys.stderr)
    index = writer.finalize()
    print(f"index: {index}")
    _finish_execution(executor)
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.workload.stats import (
        characterization_table,
        hourly_arrival_profile,
        runtime_histogram,
        width_histogram,
    )

    if args.swf:
        workload = read_swf(args.swf)
    else:
        workload = make_workload(
            WorkloadSpec(
                trace=args.trace,
                n_jobs=args.jobs,
                seed=args.seed,
                load_scale=args.load_scale,
            )
        )
    print(characterization_table(workload).render(title=f"Workload: {workload.name}"))
    print("\nruntime histogram (jobs per decade):")
    for bucket, count in runtime_histogram(workload).items():
        print(f"  {bucket:>18s}  {count}")
    print("\nwidth histogram (jobs per power-of-two bucket):")
    for bucket, count in width_histogram(workload).items():
        print(f"  {bucket:>8s}  {count}")
    profile = hourly_arrival_profile(workload)
    peak = max(profile) or 1
    print("\narrivals by hour of day:")
    for hour, count in enumerate(profile):
        bar = "#" * round(30 * count / peak)
        print(f"  {hour:02d}h {bar} {count}")
    return 0


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(value)} B"  # pragma: no cover - unreachable


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.exec import ResultStore

    store = ResultStore(cache_dir=args.cache_dir)
    if args.store_command == "stats":
        print(f"entries : {store.entry_count()}")
        print(f"size    : {_human_bytes(store.size_bytes())}")
        if store.backend.queue_exists():
            from repro.exec.queue import CellQueue

            print(CellQueue(args.cache_dir).stats().render())
        return 0
    report = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"kept {report.kept}, {verb} {report.stale_removed} stale "
        f"+ {report.corrupt_removed} corrupt"
    )
    backend = store.backend
    if backend.queue_exists():
        # Done leases are pure debris once their results are in the
        # result tables; pending/leased/poisoned rows are live state
        # and stay.
        if args.dry_run:
            done = backend.queue_counts().get("done", (0, 0))[0]
            print(f"queue: would clear {done} done lease row(s)")
        else:
            cleared = backend.queue_clear_done()
            print(f"queue: cleared {cleared} done lease row(s)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = ExperimentParams(
        n_jobs=args.jobs,
        seeds=tuple(args.seeds),
        load_scale=args.load_scale,
        traces=tuple(args.traces),
    )
    ids = args.ids or list(EXPERIMENTS)
    cells = collect_cells(ids, params)
    executor = _configure_execution(args)
    run_cells(cells)
    print(f"swept {len(cells)} cells across {len(ids)} experiment(s)")
    _finish_execution(executor)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.exec.dist import run_worker

    progress = None
    if sys.stderr.isatty():

        def progress(report):
            sys.stderr.write(f"\r[worker] {report.render()}\x1b[K")
            sys.stderr.flush()

    report = run_worker(
        args.queue,
        owner=args.owner,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        batch_groups=args.batch_groups,
        idle_seconds=args.idle_seconds,
        progress=progress,
    )
    if progress is not None:
        sys.stderr.write("\n")
    print(report.render())
    # Failed groups are re-queued or poisoned — either way the queue has
    # the full story; a nonzero exit just flags that this worker saw them.
    return 1 if report.groups_failed else 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from repro.exec.queue import CellQueue

    queue = CellQueue(args.queue_dir)
    if args.queue_command == "stats":
        print(queue.stats().render())
        poisoned = queue.poisoned()
        for entry in poisoned[:20]:
            print(
                f"  poisoned: {entry.label()} after {entry.attempts} "
                f"attempt(s): {entry.error}"
            )
        if len(poisoned) > 20:
            print(f"  ... and {len(poisoned) - 20} more")
        return 0
    reset = queue.requeue_poisoned()
    print(f"requeued {reset} poisoned cell(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import Session, serve_forever

    session = Session(
        args.procs,
        scheduler=args.scheduler,
        priority=args.priority,
        alternatives=tuple(args.alternative),
        metrics=args.metrics,
        name=args.name,
    )
    serve_forever(session, host=args.host, port=args.port)
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for experiment_id in EXPERIMENTS:
        print(f"  {experiment_id}")
    print("schedulers:", ", ".join(SCHEDULER_KINDS))
    print("priorities:", ", ".join(PRIORITY_POLICIES))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "simulate": _cmd_simulate,
        "generate": _cmd_generate,
        "report": _cmd_report,
        "characterize": _cmd_characterize,
        "store": _cmd_store,
        "sweep": _cmd_sweep,
        "worker": _cmd_worker,
        "queue": _cmd_queue,
        "serve": _cmd_serve,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
