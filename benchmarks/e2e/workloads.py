"""The six workloads of the e2e benchmark.

Each workload has a harness side (``setup`` builds inputs from the seed,
``round`` runs one timed pass and checks its outputs) and, where the
system is driven in-process, a ``body`` that ``run.py --child`` executes
in a fresh interpreter.  The system is reached only through the real CLI
(``python -m repro ...`` subprocesses) and the stable public API; no
oracle or process-global toggle is imported here.

A *round* is one complete pass over the workload's operation mix.  Every
round times two kinds of operation — the primary one feeds
``op_p50_ms`` / ``op_tail_ms``, the secondary one ``op2_p50_ms`` — and
yields a digest of the simulated results that must not vary between
rounds, runs, or the traced and untimed paths.  README.md has the table
of what each workload's operations are and why the workload exists.
"""

from __future__ import annotations

import os
import random
import re
import sys
import time

from harness import (
    Context,
    Round,
    Server,
    canonical,
    median,
    repro_cli,
    rmtree,
    run_child,
    run_process,
    sha256_text,
    sha256_tree,
)

_TREND = re.compile(r"^- \[(x| )\] (.*)$", re.MULTILINE)


def warm_cli(ctx: Context) -> None:
    """Set-up step shared by all workloads: bring the CLI up once.

    Compiles bytecode and fills the page cache so no timed round pays
    first-import cost, and fails set-up loudly if the package is broken.
    """
    scratch = ctx.fresh_dir("warm")
    done = run_process(repro_cli(["list"]), scratch)
    rmtree(scratch)
    if not done.ok:
        raise RuntimeError(f"`repro list` failed during set-up ({done.describe()})")


def _child_round(ctx: Context, name: str, inputs: dict, mode: str, **spec) -> tuple[Round, dict | None]:
    """One round = one fresh ``run.py --child`` interpreter."""
    scratch = ctx.fresh_dir(name)
    done, result = run_child(
        {"workload": name, "inputs": inputs, "mode": mode, "seed": ctx.seed, **spec}, scratch
    )
    round_ = Round(wall_s=done.wall_s, maxrss_kb=done.maxrss_kb)
    if result is None:
        round_.attempted = 1
        round_.fail(f"{name} child failed ({done.describe()})")
    else:
        round_.op_ms = result["op_ms"]
        round_.op2_ms = result["op2_ms"]
        round_.attempted = result["attempted"]
        round_.digest = result["digest"]
        round_.body_s = result["body_s"]
        round_.trace = result.get("trace")
        round_.extra = result.get("extra", {})
        for failure in result["failures"]:
            round_.fail(failure)
    rmtree(scratch)
    return round_, result


def _setup_child(ctx: Context, name: str, inputs: dict) -> dict:
    """Generate a workload's inputs in a child (``body_setup``).

    The harness itself never imports the package or numpy: a child's
    ``ru_maxrss`` starts from its parent's peak, so a fat harness would
    put a floor under every ``peak_rss_mb`` it reports.
    """
    round_, result = _child_round(ctx, name, inputs, "timed", leg="setup")
    if result is None or round_.failures:
        raise RuntimeError(f"{name} set-up failed: {'; '.join(round_.failures)}")
    return result


def _timed(samples: list[float], fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    samples.append((time.perf_counter() - started) * 1e3)
    return value


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    why = ""
    #: Percentile op_tail_ms reports.  A handful of round-level samples
    #: supports no more than the upper quartile; only serve_whatif, with
    #: about a thousand queries a run, has a p99 (ten samples beyond it).
    tail_percentile = 75

    def inputs(self, ctx: Context) -> dict:
        """The round's inputs as plain data, from the seed."""
        return {}

    def setup(self, ctx: Context) -> dict:
        """Default set-up: CLI warm-up, inputs, then one untimed round.

        The warm-up round fills every cache a timed round could find
        cold and proves the workload runs before anything is measured;
        it also makes ``setup_s`` a measure of real work rather than of
        one interpreter start-up, whose cost drifts by 30 % between
        phases of the sandbox host.
        """
        warm_cli(ctx)
        inputs = self.inputs(ctx)
        warm_up = self.round(ctx, inputs, 0, "timed")
        if warm_up.failures:
            raise RuntimeError(f"{self.name} warm-up round failed: {'; '.join(warm_up.failures)}")
        return inputs

    def round(self, ctx: Context, inputs: dict, index: int, mode: str) -> Round:
        """One pass.  ``mode`` is ``"timed"`` (the real path, tracing off),
        ``"traced"`` (wrappers installed) or ``"base"`` (the traced path
        with no wrappers - what tracing overhead is measured against).
        By default the whole round is ``body`` in one child."""
        return _child_round(ctx, self.name, inputs, mode)[0]

    def traced_extras(self, ctx: Context, inputs: dict) -> dict:
        """What only the harness can measure for the per-layer table."""
        return {}

    def teardown(self, inputs: dict) -> int:
        """Release what set-up started; returns a long-lived child's peak RSS (KB)."""
        return 0

    def held_trends(self, inputs: dict) -> list[str] | None:
        """Trend checks that held in the last round (CLI report workloads)."""
        return None


# -- the two CLI report workloads ----------------------------------------------


class CliReportWorkload(Workload):
    """Two ``python -m repro`` invocations per round, through the real CLI."""

    reports_per_round = 0

    def argvs(self, ctx: Context, out) -> tuple[list[str], list[str]]:
        raise NotImplementedError

    def round(self, ctx, inputs, index, mode):
        out = ctx.fresh_dir(self.name)
        primary, secondary = self.argvs(ctx, out)
        if mode != "timed":
            # Same argv through repro.cli.main() in a child, so the
            # tracer's wrappers apply (and the untraced base matches).
            round_, result = _child_round(
                ctx, self.name, {"primary": primary, "secondary": secondary}, mode
            )
            listing = result["extra"].pop("stdout2", "") if result else ""
        else:
            round_ = Round()
            listing = ""
            for argv, samples in ((primary, round_.op_ms), (secondary, round_.op2_ms)):
                scratch = ctx.fresh_dir("cli")
                done = run_process(repro_cli(argv), scratch)
                rmtree(scratch)
                round_.wall_s += done.wall_s
                round_.maxrss_kb = max(round_.maxrss_kb, done.maxrss_kb)
                samples.append(done.wall_s * 1e3)
                if not done.ok:
                    round_.failures.append(f"`repro {argv[0]}` failed ({done.describe()})")
                listing = done.stdout
        # One op per report written, plus the secondary call when it is not a report.
        round_.attempted = self.reports_per_round + (secondary[0] != "report")
        if round_.failures:
            round_.failed = round_.attempted
        reports = sorted(out.rglob("report.md"))
        if len(reports) != self.reports_per_round:
            round_.fail(f"{len(reports)} of {self.reports_per_round} reports written")
        # `repro simulate` output is part of the product; a `report` call's
        # stdout names the temp dir, so only its files are digested.
        tail = listing if secondary[0] != "report" else ""
        round_.digest = sha256_text(sha256_tree(out), tail)
        inputs["held"] = sorted(
            f"{path.parent.name}: {trend}"
            for path in reports
            for mark, trend in _TREND.findall(path.read_text(encoding="utf-8"))
            if mark == "x"
        )
        rmtree(out)
        return round_

    def held_trends(self, inputs):
        return inputs.get("held")

    def traced_extras(self, ctx, inputs):
        """Interpreter + import cost, which no in-process span can see."""

        def wall(argv: list[str]) -> float:
            times = []
            for _ in range(3):
                scratch = ctx.fresh_dir("startup")
                times.append(run_process(argv, scratch).wall_s)
                rmtree(scratch)
            return median(times)

        bare = wall([sys.executable, "-c", "pass"])
        return {
            "cli_import_s": wall([sys.executable, "-c", "import repro.cli"]) - bare,
            "cli_startup_s": wall(repro_cli(["list"])),
        }

    @staticmethod
    def body(inputs: dict, result: dict) -> None:
        import contextlib
        import io

        from repro.cli import main

        for key, samples in (("primary", result["op_ms"]), ("secondary", result["op2_ms"])):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = _timed(samples, main, inputs[key])
            if code != 0:
                result["failures"].append(f"repro.cli.main({inputs[key][0]}) returned {code}")
            result["extra"]["stdout2"] = captured.getvalue()
        result["attempted"] = 1


class PaperGrid(CliReportWorkload):
    name = "paper_grid"
    why = (
        "The paper's product, CLI entry to rendered report: every sim layer in the "
        "paper's own proportions; the number a speedup must finally move."
    )
    ids = ("tables23", "figure1", "figure2", "table4", "tables56", "figure3", "figure4", "table7")
    reports_per_round = len(ids)

    def argvs(self, ctx, out):
        jobs, single = (100, 200) if ctx.quick else (800, 1500)
        load = ["--load-scale", repr(ctx.load(0.75))]
        return (
            ["report", str(out), *self.ids, "--jobs", str(jobs), "--seeds", "1", *load],
            ["simulate", "--trace", "SDSC", "--jobs", str(single), "--scheduler", "cons",
             "--estimate", "user", *load],
        )


class ExtensionEngines(CliReportWorkload):
    name = "extension_engines"
    why = (
        "The only traffic through grid/engine.py, preempt/engine.py and the "
        "advance-reservation path; an engine refactor must not slow it and no other workload would notice."
    )
    reports_per_round = 3

    def argvs(self, ctx, out):
        grid = ["--jobs", "100", "--seeds", "1"] if ctx.quick else ["--jobs", "600", "--seeds", "1", "2"]
        grid += ["--load-scale", repr(ctx.load(0.75))]
        return (
            ["report", str(out / "engines"), "grid", "preemption", *grid],
            ["report", str(out / "reservations"), "maintenance", *grid],
        )


# -- deep_queue_repack -----------------------------------------------------------


def _cells(rows):
    from repro.exec import Cell
    from repro.experiments.config import WorkloadSpec

    return [
        Cell.make(WorkloadSpec(trace, n_jobs, seed, load, estimate), kind, priority)
        for trace, n_jobs, seed, load, estimate, kind, priority in rows
    ]


def _digest_metrics(metrics) -> str:
    from repro.exec import metrics_digest

    return sha256_text(*[metrics_digest(m) for m in metrics])


class DeepQueueRepack(Workload):
    name = "deep_queue_repack"
    why = (
        "Overloaded CTC cells with deep queues: the reservation repack and the Profile "
        "kernel do most of the work, and the 3-horizon axis is the only place chain prefix-forking fires."
    )

    def inputs(self, ctx):
        loads, horizons = ((0.55,), (60, 90, 120)) if ctx.quick else ((0.4, 0.55), (250, 375, 500))
        primary, secondary = [], []
        for load in loads:
            for horizon in horizons:
                spec = ("CTC", horizon, 1, ctx.load(load), "user")
                primary += [spec + (kind, prio) for kind, prio in (("cons", "FCFS"), ("cons", "SJF"), ("cons", "XF"))]
                secondary += [spec + ("sel", "FCFS"), spec + ("depth", "FCFS")]
                if load == loads[-1]:
                    secondary.append(spec + ("slack", "FCFS"))
        return {"primary": primary, "secondary": secondary}

    @staticmethod
    def body(inputs: dict, result: dict) -> None:
        from repro.exec import CellExecutor, ResultStore

        executor = CellExecutor(store=ResultStore())  # memory-only, chains on
        batches = []
        for key, samples in (("primary", result["op_ms"]), ("secondary", result["op2_ms"])):
            cells = _cells(inputs[key])
            result["attempted"] += len(cells)
            batches.append(_timed(samples, executor.execute, cells))

        def check() -> None:
            result["digest"] = sha256_text(*[_digest_metrics(metrics) for metrics in batches])

        return check


# -- swf_replay --------------------------------------------------------------------


class SwfReplay(Workload):
    name = "swf_replay"
    why = (
        "One long SWF trace under EASY only: parse, arrival feed, event loop, queue ordering "
        "and metrics do the work and the Profile kernel almost none - the bypass workload for kernel changes."
    )

    def setup(self, ctx):
        warm_cli(ctx)
        inputs = {
            "swf": str(ctx.fresh_dir("swf") / "trace.swf"),
            "n_jobs": 1500 if ctx.quick else 16000,
            "load": ctx.load(0.75),
        }
        _setup_child(ctx, self.name, inputs)
        return inputs

    @staticmethod
    def body_setup(inputs: dict, result: dict) -> None:
        from repro.experiments.config import WorkloadSpec
        from repro.experiments.runner import make_workload_table
        from repro.workload.swf import write_swf

        table = make_workload_table(WorkloadSpec("CTC", inputs["n_jobs"], 1, inputs["load"], "user"))
        write_swf(table.to_workload(), inputs["swf"])

    @staticmethod
    def body(inputs: dict, result: dict) -> None:
        from repro.exec import metrics_digest
        from repro.experiments.runner import make_scheduler
        from repro.sched.validate import validate_schedule
        from repro.sim.engine import simulate
        from repro.workload.swf import read_swf, read_swf_table

        def legs(reader, *priorities):
            out = []
            for priority in priorities:
                source = reader(inputs["swf"])  # parsed again per leg, as separate runs would
                out.append((source, simulate(source, make_scheduler("easy", priority))))
            return out

        runs = _timed(result["op_ms"], legs, read_swf_table, "SJF", "XF")  # table feed
        runs += _timed(result["op2_ms"], legs, read_swf, "FCFS")  # row feed
        result["attempted"] = len(runs) * inputs["n_jobs"]

        def check() -> None:
            result["digest"] = sha256_text(*[metrics_digest(run.metrics) for _, run in runs])
            workload = runs[2][0]
            for (_, run), label in zip(runs, ("easy-SJF", "easy-XF", "easy-FCFS")):
                if len(run.metrics.records) != inputs["n_jobs"]:
                    result["failures"].append(f"{label}: {len(run.metrics.records)} jobs completed")
                violations = validate_schedule(workload, run.metrics.records)
                if violations:
                    result["failures"].append(f"{label}: {violations[0]} (+{len(violations) - 1} more)")

        return check


# -- cached_sweep --------------------------------------------------------------------


class CachedSweep(Workload):
    name = "cached_sweep"
    why = (
        "Hundreds of tiny cells through the sqlite store and the lease queue, cold then warm: "
        "simulation is small so per-cell exec machinery dominates, writes beside reads."
    )

    def inputs(self, ctx):
        count = 30 if ctx.quick else 300
        return {
            "cells": [
                ("CTC", 60 + i % 31, 1 + i, ctx.load(1.0), "exact", ("easy", "cons", "nobf")[i % 3], "FCFS")
                for i in range(count)
            ]
        }

    def round(self, ctx, inputs, index, mode):
        store = ctx.fresh_dir("store")
        round_, _ = _child_round(ctx, self.name, {**inputs, "dir": str(store)}, mode)
        rmtree(store)
        return round_

    def traced_extras(self, ctx, inputs):
        """The same cold sweep drained by two spawned workers, in its own
        child so a fleet that dies at start-up costs one deadline, not the run."""
        reason = "needs nproc >= 2"
        if (os.cpu_count() or 1) >= 2:
            store = ctx.fresh_dir("store2")
            round_, result = _child_round(
                ctx, self.name, {**inputs, "dir": str(store)}, "timed", leg="two_worker"
            )
            rmtree(store)
            if result is not None and not round_.failures:
                return {"two_worker_cells_per_s": len(inputs["cells"]) / (result["op_ms"][0] / 1e3)}
            reason = "; ".join(round_.failures)
        print(f"note: exec.dist.two_worker_cells_per_s reads 0 ({reason})", file=sys.stderr)
        return {}

    @staticmethod
    def body(inputs: dict, result: dict) -> None:
        from repro.exec import DistExecutor

        cells = _cells(inputs["cells"])
        result["attempted"] = 2 * len(cells)
        cold = DistExecutor(inputs["dir"], workers=0)
        first = _timed(result["op_ms"], cold.execute, cells)
        stats = cold.queue.stats()
        cold.queue.close()
        warm = DistExecutor(inputs["dir"], workers=0)  # new executor, same directory
        second = _timed(result["op2_ms"], warm.execute, cells)
        warm.queue.close()

        def check() -> None:
            result["digest"] = _digest_metrics(first)
            if _digest_metrics(second) != result["digest"]:
                result["failures"].append("warm results differ from cold results")
            if warm.last_report.cache_hits != len(cells) or warm.last_report.simulated:
                result["failures"].append(
                    f"warm pass hit {warm.last_report.cache_hits}/{len(cells)} cells"
                )
            if stats.poisoned_cells:
                result["failures"].append(f"{stats.poisoned_cells} poisoned queue cells")
            result["extra"].update(
                bytes_on_disk=warm.store.size_bytes(),
                retries=stats.retried_cells,
                poisoned=stats.poisoned_cells,
            )

        return check

    @staticmethod
    def body_two_worker(inputs: dict, result: dict) -> None:
        from repro.exec import DistExecutor

        cells = _cells(inputs["cells"])
        result["attempted"] = len(cells)
        executor = DistExecutor(inputs["dir"], workers=2)
        _timed(result["op_ms"], executor.execute, cells)
        executor.queue.close()


# -- serve_whatif ----------------------------------------------------------------------

FORECAST_HORIZON_S = 4 * 3600.0
WARMUP_QUERIES = 30
_RUNTIMES = (300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0)
_WIDTHS = (1, 2, 4, 8, 16, 32, 64)
_OVERESTIMATES = (1.0, 1.5, 2.0, 4.0)


def _job(rng: random.Random) -> dict:
    runtime = rng.choice(_RUNTIMES)
    return {
        "runtime": runtime,
        "procs": rng.choice(_WIDTHS),
        "estimate": runtime * rng.choice(_OVERESTIMATES),
    }


def serve_ops(seed: int, block: int, cycles: int) -> list[tuple[str, dict]]:
    """Block ``block`` of the request stream: per cycle 10 what-ifs, 4
    forecasts, 1 submit, 1 advance - reads beside the writes that move
    the live state under them."""
    rng = random.Random(seed * 1_000_003 + block)
    ops = []
    for _ in range(cycles):
        ops += [("/what-if", {"job": _job(rng)}) for _ in range(10)]
        ops += [("/forecast", {"horizon": FORECAST_HORIZON_S})] * 4
        ops.append(("/submit", _job(rng)))
        ops.append(("/advance", {"dt": 120.0}))
    return ops


def _reply_problem(path: str, status: int, reply: dict, clock: float) -> str | None:
    """Structural check applied to every HTTP reply."""
    if status != 200:
        return f"{path} -> {status} {reply.get('error', '')}"
    if path == "/what-if":
        target = reply.get("target") or {}
        if not isinstance(target.get("start_time"), float) or target["start_time"] < clock:
            return f"/what-if target start {target.get('start_time')} before clock {clock}"
    elif path == "/forecast":
        if reply.get("at_time") != clock + FORECAST_HORIZON_S:
            return f"/forecast at_time {reply.get('at_time')} != clock + horizon"
    elif path == "/submit":
        if not isinstance(reply.get("job_id"), int):
            return "/submit reply carries no job_id"
    elif reply.get("clock", -1.0) < clock:
        return f"/advance moved the clock backwards to {reply.get('clock')}"
    return None


class ServeWhatif(Workload):
    name = "serve_whatif"
    why = (
        "A live session behind HTTP, closed loop, 1 client, 1 request in flight: fork-per-query cost, "
        "branch drain and the JSON codec are invisible to the batch workloads."
    )
    tail_percentile = 99

    def setup(self, ctx):
        warm_cli(ctx)
        stream = {"n_jobs": 150 if ctx.quick else 600, "load": ctx.load(0.75)}
        jobs = _setup_child(ctx, self.name, stream)["extra"]["jobs"]
        advance_to = 0.75 * jobs[-1]["submit_time"]
        server = Server(
            ["--procs", "128", "--scheduler", "easy", "--metrics", "bounded"], ctx.fresh_dir("serve")
        )
        inputs = {"server": server, "jobs": jobs, "advance_to": advance_to, "clock": advance_to}
        try:
            for job in jobs:
                status, reply, _ = server.request("POST", "/submit", job)
                if status != 200:
                    raise RuntimeError(f"ingest failed: {status} {reply}")
            status, reply, _ = server.request("POST", "/advance", {"to_time": advance_to})
            status, state, _ = server.request("GET", "/state")
            if status != 200 or state["queued"] <= 0:
                raise RuntimeError(f"session has no backlog after ingest: {state}")
            rng = random.Random(ctx.seed)
            for _ in range(WARMUP_QUERIES):  # discarded: queries leave the live state alone
                server.request("POST", "/what-if", {"job": _job(rng)})
        except BaseException:
            server.stop()
            raise
        return inputs

    def teardown(self, inputs):
        inputs["server"].stop()
        return inputs["server"].maxrss_kb

    def round(self, ctx, inputs, index, mode):
        server: Server = inputs["server"]
        ops = serve_ops(ctx.seed, index, 3 if ctx.quick else 25)
        round_ = Round(attempted=len(ops))
        replies = []
        started = time.perf_counter()
        for path, body in ops:
            status, reply, seconds = server.request("POST", path, body)
            problem = _reply_problem(path, status, reply, inputs["clock"])
            if problem:
                round_.fail(problem, ops=1)
            elif path == "/advance":
                inputs["clock"] = reply["clock"]
            if path == "/what-if":
                round_.op_ms.append(seconds * 1e3)
            elif path == "/forecast":
                round_.op2_ms.append(seconds * 1e3)
            replies.append(sha256_text(canonical(reply)))  # replies run to 20 KB; keep the harness lean
        round_.wall_s = time.perf_counter() - started
        if index == 0:
            inputs["block0"] = (ops, replies)
            inputs["digest"] = sha256_text(*replies)
        round_.digest = inputs["digest"]
        if index == 0 or mode != "timed":
            self._replay(ctx, inputs, round_, mode)
        return round_

    def _replay(self, ctx, inputs, round_: Round, mode: str) -> None:
        """Replay block 0 on an in-process Session; replies must match HTTP's."""
        ops, replies = inputs["block0"]
        replay, result = _child_round(
            ctx,
            self.name,
            {"jobs": inputs["jobs"], "advance_to": inputs["advance_to"], "ops": ops},
            mode,
        )
        round_.body_s, round_.trace, round_.extra = replay.body_s, replay.trace, replay.extra
        for failure in replay.failures:
            round_.fail(f"in-process replay: {failure}")
        if result is not None:
            theirs = result["extra"].pop("replies")
            differ = [ops[i][0] for i, (a, b) in enumerate(zip(theirs, replies)) if a != b]
            if differ or len(theirs) != len(replies):
                round_.fail(
                    f"in-process replay disagrees with {len(differ)} HTTP replies (first: {differ[:1]})"
                )

    @staticmethod
    def body_setup(inputs: dict, result: dict) -> None:
        from repro.experiments.config import WorkloadSpec
        from repro.experiments.runner import make_workload_table
        from repro.serve.protocol import job_to_payload

        table = make_workload_table(WorkloadSpec("SDSC", inputs["n_jobs"], 11, inputs["load"], "user"))
        result["extra"]["jobs"] = [job_to_payload(job) for job in table.to_workload()]

    @staticmethod
    def body(inputs: dict, result: dict) -> None:
        from repro.serve import Session
        from repro.serve.protocol import (
            job_from_payload,
            queue_forecast_to_payload,
            what_if_to_payload,
        )

        session = Session(128, scheduler="easy", metrics="bounded")
        for job in inputs["jobs"]:
            session.submit(**job_from_payload(job))
        session.advance(inputs["advance_to"])
        replies = []
        for path, body in inputs["ops"]:
            if path == "/what-if":
                report = _timed(result["op_ms"], session.what_if, **job_from_payload(body["job"]))
                reply = what_if_to_payload(report, include_metrics=False)
            elif path == "/forecast":
                forecast = _timed(result["op2_ms"], session.queue_forecast, body["horizon"])
                reply = queue_forecast_to_payload(forecast)
            elif path == "/submit":
                reply = {"job_id": session.submit(**job_from_payload(body)), "clock": session.clock}
            else:
                reply = {"clock": session.advance(dt=body["dt"])}
            replies.append(reply)
        result["attempted"] = len(replies)
        result["extra"].update(
            whatif_inproc_p50_ms=median(result["op_ms"]),
            forecast_inproc_p50_ms=median(result["op2_ms"]),
        )

        def encode() -> None:  # the harness's own checking, kept out of the traced span
            result["extra"]["replies"] = [sha256_text(canonical(reply)) for reply in replies]
            result["digest"] = sha256_text(*result["extra"]["replies"])

        return encode


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        PaperGrid(),
        DeepQueueRepack(),
        SwfReplay(),
        ExtensionEngines(),
        CachedSweep(),
        ServeWhatif(),
    )
}
