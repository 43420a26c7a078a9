#!/usr/bin/env python3
"""End-to-end benchmark of the repro scheduling simulator.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed 1]
        [--seconds 8] [--trace [0|1]] [--repeats N] [--quick] [--out FILE]

Runs each named workload (default: all six, see workloads.py) from a
seed: set-up builds the inputs, then whole rounds of the workload repeat
until ``--seconds`` of measured time have passed, every round in fresh
child processes with tracing off, outputs checked.  ``--trace 1`` makes
it the traced run instead: rounds alternate between an untraced base and
one with tracer.py's wrappers installed, and the metrics are the
per-layer ones.  Every metric is printed by name with its unit; the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` (BENCHMARK.json at the repository root is the contract).

``--child SPEC`` is the internal entry a round uses to run one workload
body in a fresh interpreter; this file stays import-safe because the
two-worker leg's spawned workers re-import it as their main module.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import HERE, OUT, SRC, Context, Round, make_workdir, median, percentile  # noqa: E402
from harness import rmtree, run_process  # noqa: E402

GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPS = 3
#: Stop starting rounds this long after a run began (the contract allows 180 s).
RUN_DEADLINE_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op2_p50_ms": "ms",
}


def host_stamp() -> dict:
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    scratch = make_workdir()
    # In a child: the harness never imports the package (see _setup_child).
    code = "import json, repro.hostinfo as h; print(json.dumps(h.host_provenance()))"
    done = run_process([sys.executable, "-c", code], scratch)
    rmtree(scratch)
    if not done.ok:
        raise SystemExit(f"error: cannot import repro ({done.describe()})")
    return {
        "host": json.loads(done.stdout),
        "nproc": nproc,
        "loadavg_1m": load1,
        # Another tenant on the cores shows up as latency, not as a bug.
        "noisy": load1 > 0.5 * nproc,
    }


# -- one run of one workload -----------------------------------------------------


def _check_golden(record: dict, golden: dict | None, held: list[str] | None) -> None:
    """Pin the default seed's results; other seeds rely on run == run."""
    size = "quick" if record["quick"] else "full"
    pinned = (golden or {}).get(size, {}).get(record["workload"])
    if pinned is None or golden.get("seed") != record["seed"]:
        return
    if pinned["digest"] != record["result_digest"]:
        record["failures"].append(
            f"result_digest drifted from golden.json ({record['result_digest'][:12]} != "
            f"{pinned['digest'][:12]})"
        )
        record["failed"] = record["attempted"]
    lost = sorted(set(pinned.get("held_trends", [])) - set(held or []))
    if held is not None and lost:
        record["failures"].append(f"trend checks stopped holding: {lost}")
        record["failed"] = record["attempted"]


def run_workload(name: str, *, seed: int, seconds: float, trace: bool, quick: bool, golden) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ctx = Context(seed, quick, make_workdir())
    began = time.perf_counter()
    modes = ("base", "traced") if trace else ("timed",)
    min_rounds = len(modes) if (quick or trace) else 3
    setup_s: list[float] = []
    rounds: list[tuple[str, Round]] = []
    inputs = None
    try:
        try:
            # Set-up repeats so setup_s is a median, not one sample.
            for _ in range(1 if (quick or trace) else SETUP_REPS):
                if inputs is not None:
                    workload.teardown(inputs)
                started = time.perf_counter()
                inputs = workload.setup(ctx)
                setup_s.append(time.perf_counter() - started)
            # At least min_rounds; then whole base/traced pairs until
            # --seconds of measured time, unless the deadline comes first.
            while len(rounds) < min_rounds or (
                (len(rounds) % len(modes) or sum(r.wall_s for _, r in rounds) < seconds)
                and time.perf_counter() - began < RUN_DEADLINE_S
            ):
                mode = modes[len(rounds) % len(modes)]
                rounds.append((mode, workload.round(ctx, inputs, len(rounds), mode)))
            extra = workload.traced_extras(ctx, inputs) if trace else {}
            held = workload.held_trends(inputs)
        finally:
            server_rss_kb = workload.teardown(inputs) if inputs is not None else 0
    finally:
        rmtree(ctx.workdir)

    every = [r for _, r in rounds]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "rounds": len(rounds),
        "samples": {"op": sum(len(r.op_ms) for r in every), "op2": sum(len(r.op2_ms) for r in every)},
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "failures": [f for r in every for f in r.failures],
        "result_digest": every[0].digest,
        "elapsed_s": time.perf_counter() - began,
    }
    if len({r.digest for r in every}) > 1:
        record["failures"].append("result_digest differs between rounds of one run")
        record["failed"] = record["attempted"]
    _check_golden(record, golden, held)
    record["held_trends"] = held
    record["correct"] = record["failed"] == 0 and not record["failures"]

    if trace:
        record["metrics"] = _per_layer(rounds, extra)
    else:
        op_ms = [ms for r in every for ms in r.op_ms]
        op2_ms = [ms for r in every for ms in r.op2_ms]
        values = {
            "setup_s": median(setup_s),
            "wall_s": median([r.wall_s for r in every]),
            "peak_rss_mb": max([server_rss_kb] + [r.maxrss_kb for r in every]) / 1024.0,
            "op_p50_ms": median(op_ms) if op_ms else 0.0,
            "op_tail_ms": percentile(op_ms, workload.tail_percentile) if op_ms else 0.0,
            "op2_p50_ms": median(op2_ms) if op2_ms else 0.0,
        }
        record["metrics"] = {
            key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in values.items()
        }
    return record


def _per_layer(rounds, extra: dict) -> dict:
    from tracer import per_layer_metrics

    base = [r for mode, r in rounds if mode == "base" and r.body_s]
    traced = [r for mode, r in rounds if mode == "traced" and r.trace]
    if base and "whatif_inproc_p50_ms" in base[0].extra:
        # In-process latencies come from the untraced replays: the wrappers'
        # own cost must not pass for session time or shrink the HTTP tax.
        for key in ("whatif_inproc_p50_ms", "forecast_inproc_p50_ms"):
            extra[key] = median([r.extra[key] for r in base])
        http = [ms for _, r in rounds for ms in r.op_ms]
        extra["http_tax_p50_ms"] = median(http) - extra["whatif_inproc_p50_ms"]
    per_round = []
    for round_ in traced:
        per_round.append(per_layer_metrics(round_.trace, round_.body_s, {**round_.extra, **extra}))
        for target in round_.trace.get("missing", []):
            print(f"warning: traced target {target} no longer exists; its metrics read 0", file=sys.stderr)
    metrics = {}
    for key in per_round[0] if per_round else ():
        metrics[key] = {
            "value": median([layer[key][0] for layer in per_round]),
            "unit": per_round[0][key][1],
        }
    overhead = 0.0
    if base and traced:
        overhead = median([r.body_s for r in traced]) / median([r.body_s for r in base]) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics


# -- the body of one round, in its own interpreter -----------------------------------


def child_main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    body = getattr(workload, f"body_{spec['leg']}" if spec.get("leg") else "body")
    result = {"op_ms": [], "op2_ms": [], "attempted": 0, "failures": [], "digest": "", "extra": {}}
    tracer = None
    if spec["mode"] != "timed":
        # Traced and base rounds load every module the targets name up
        # front: the subclass walks and by-name re-binding must see them
        # all, and body_s of the two must differ by the wrappers alone.
        import repro.cli  # noqa: F401
        import repro.grid.engine  # noqa: F401
        import repro.preempt.engine  # noqa: F401
        import repro.serve  # noqa: F401
    if spec["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer(spec["workload"], run_id=f"seed{spec['seed']}")
        tracer.install()
    started = time.perf_counter()
    if tracer is None:
        after = body(spec["inputs"], result)
    else:
        with tracer.root():
            after = body(spec["inputs"], result)
    result["body_s"] = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    if after is not None:
        # A body returns its output checks (digests, validation) as a
        # closure: run here they are neither timed nor traced, so calls
        # they make into the package are not billed to its layers.
        after()
    if tracer is not None:
        result["trace"] = {**tracer.table(), "missing": tracer.missing}
        OUT.mkdir(exist_ok=True)
        tracer.write_chrome_trace(OUT / f"trace-{spec['workload']}.json")
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


# -- reporting ---------------------------------------------------------------------


def print_record(record: dict) -> None:
    kind = "traced" if record["trace"] else "timed"
    status = "ok" if record["correct"] else "FAILED"
    print(
        f"== {record['workload']} [{kind}, seed {record['seed']}] {status}: "
        f"{record['rounds']} rounds, {record['attempted']} ops, {record['failed']} failed, "
        f"{record['samples']['op']}+{record['samples']['op2']} latency samples, "
        f"digest {record['result_digest'][:16]}, {record['elapsed_s']:.1f}s"
    )
    for failure in record["failures"][:10]:
        print(f"   ! {failure}")
    for key, metric in record["metrics"].items():
        if record["trace"] and not metric["value"]:
            continue  # a layer this workload never enters
        print(f"   {key:42s} {metric['value']:>14.6g} {metric['unit']}")


def print_summary(records: list[dict]) -> None:
    """With --repeats: median and quartiles per (workload, metric)."""
    groups: dict[tuple, list[float]] = {}
    for record in records:
        for key, metric in record["metrics"].items():
            groups.setdefault((record["workload"], key, metric["unit"]), []).append(metric["value"])
    print("== median [q1, q3] over repeats")
    for (workload, key, unit), values in groups.items():
        if len(values) < 2 or not any(values):
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"   {workload:18s} {key:32s} {q2:>12.6g} [{q1:.6g}, {q3:.6g}] {unit} (n={len(values)})")


def final_line(records: list[dict]) -> str:
    """The contract line: medians over repeats; names prefixed when
    several workloads ran in one invocation."""
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    metrics = {}
    for workload in workloads:
        mine = [r for r in records if r["workload"] == workload]
        for key, metric in mine[0]["metrics"].items():
            name = key if len(workloads) == 1 else f"{workload}.{key}"
            metrics[name] = {
                "value": median([r["metrics"][key]["value"] for r in mine]),
                "unit": metric["unit"],
            }
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default 8; 0 with --quick = one round)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 = the traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload, same seed")
    parser.add_argument("--quick", action="store_true", help="shrink every workload to about 2 s")
    parser.add_argument("--out", help="write every run's record to this JSON file (compare.py input)")
    parser.add_argument("--update-golden", action="store_true",
                        help="pin this run's digests and held trend checks in golden.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else (0.0 if args.quick else 8.0)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    if args.update_golden:
        golden = None

    stamp = host_stamp()
    print(f"host {json.dumps(stamp)}")
    records = []
    for name in names:
        for _ in range(args.repeats):
            record = run_workload(
                name, seed=args.seed, seconds=seconds, trace=bool(args.trace),
                quick=args.quick, golden=golden,
            )
            print_record(record)
            records.append(record)
    if args.repeats > 1:
        print_summary(records)
    if args.out:
        Path(args.out).write_text(json.dumps({**stamp, "seconds": seconds, "runs": records}, indent=1))
    if args.update_golden:
        _update_golden(records, stamp, args)
    print(final_line(records))
    return 0


def _update_golden(records: list[dict], stamp: dict, args) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.update(seed=args.seed, host=stamp["host"])
    size = golden.setdefault("quick" if args.quick else "full", {})
    for record in records:
        if not record["correct"]:
            raise SystemExit(f"refusing to pin a failed run of {record['workload']}")
        entry = {"digest": record["result_digest"]}
        if record["held_trends"] is not None:
            entry["held_trends"] = record["held_trends"]
        size[record["workload"]] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
