"""Process, timing and digest helpers shared by the e2e benchmark files.

Everything the benchmark starts goes through :func:`run_process` (or
:class:`Server` for the one long-lived child): a fresh interpreter with
``PYTHONHASHSEED=0``, output to files, a hard deadline enforced by a
watchdog timer, and ``os.wait4`` so each child's own peak RSS is known.
A child that outlives its deadline is killed and scored as a failed
operation — the benchmark never hangs on the system under test.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Hard deadline for any one child process / HTTP request (seconds).
PROCESS_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 10.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # CLI users import from cached bytecode; without it every child would
    # spend a third of a second compiling the package again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


#: Half-width of the seed's jitter on the offered load (see Context.load).
LOAD_JITTER = 5e-5


@dataclass
class Context:
    """One benchmark run's parameters and scratch space."""

    seed: int
    quick: bool
    workdir: Path
    counter: int = 0

    def load(self, load_scale: float) -> float:
        """``load_scale`` jittered by the seed, by at most +-0.005 %.

        The job populations are pinned (generator seeds are constants)
        because the cost of a backfilling simulation is chaotic in its
        input: measured on paper_grid, another generator seed moves
        wall-clock by +-15-25 % and even a +-1 % change of offered load
        by +-5 % - more than any bound worth gating on.  This jitter is
        enough to move every start time, so each seed has its own
        digests, without leaving the queue-depth regime.
        """
        return load_scale * (1.0 + random.Random(self.seed).uniform(-LOAD_JITTER, LOAD_JITTER))

    def fresh_dir(self, stem: str) -> Path:
        self.counter += 1
        path = self.workdir / f"{stem}-{self.counter}"
        path.mkdir(parents=True)
        return path


def make_workdir() -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=OUT))


@dataclass
class Completed:
    """Outcome of one watched child process."""

    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out

    def describe(self) -> str:
        if self.timed_out:
            return f"killed after {self.wall_s:.0f}s watchdog"
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {self.returncode}: {tail[0][:200]}"


def run_process(argv: list[str], scratch: Path, *, timeout: float = PROCESS_TIMEOUT_S) -> Completed:
    """Run ``argv`` to completion under a watchdog; time start to exit."""
    with open(scratch / "stdout.txt", "w+") as out, open(scratch / "stderr.txt", "w+") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        fired = threading.Event()

        def kill() -> None:
            fired.set()
            proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Completed(
            proc.returncode, wall, usage.ru_maxrss, out.read(), err.read(), fired.is_set()
        )


def repro_cli(args: list[str]) -> list[str]:
    """argv for the real CLI, exactly as a user runs it."""
    return [sys.executable, "-m", "repro", *args]


def run_child(spec: dict, scratch: Path, *, timeout: float = PROCESS_TIMEOUT_S):
    """Run one workload body in a fresh interpreter (``run.py --child``).

    Returns ``(Completed, result dict or None)``; the body's result
    travels through a file so CLI output on stdout cannot corrupt it.
    """
    spec_path = scratch / "spec.json"
    result_path = scratch / "result.json"
    spec_path.write_text(json.dumps({**spec, "result": str(result_path)}))
    done = run_process(
        [sys.executable, str(HERE / "run.py"), "--child", str(spec_path)],
        scratch,
        timeout=timeout,
    )
    result = None
    if done.ok and result_path.exists():
        result = json.loads(result_path.read_text())
    return done, result


class Server:
    """``python -m repro serve`` as a child, on an ephemeral port."""

    def __init__(self, args: list[str], scratch: Path) -> None:
        self._err = open(scratch / "server-stderr.txt", "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", *args, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._err,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            banner = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        try:
            self.port = int(banner.strip().rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"repro serve did not announce a port: {banner!r}") from None
        self.maxrss_kb = 0

    def request(self, method: str, path: str, body: dict | None = None):
        """One request on its own connection: ``(status, payload, seconds)``.

        A fresh connection per request is what a one-shot client does
        and sidesteps the 40 ms Nagle/delayed-ACK stall a kept-alive
        ``http.client`` socket hits against ``BaseHTTPRequestHandler``
        (headers and body leave in separate segments).
        """
        data = None if body is None else json.dumps(body)
        headers = {} if data is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - started
            return response.status, json.loads(raw), elapsed
        except (OSError, ValueError, http.client.HTTPException) as exc:
            return 0, {"error": f"{type(exc).__name__}: {exc}"}, time.perf_counter() - started
        finally:
            conn.close()

    def stop(self) -> None:
        """Terminate the server, wait for it, and keep its peak RSS."""
        if self.proc.returncode is None:
            self.proc.terminate()
            watchdog = threading.Timer(10.0, self.proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                watchdog.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_kb = usage.ru_maxrss
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._err.close()


@dataclass
class Round:
    """What one round of a workload measured and checked."""

    wall_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)  # primary-op latencies
    op2_ms: list[float] = field(default_factory=list)  # secondary-op latencies
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    maxrss_kb: int = 0
    body_s: float = 0.0  # in-process body time (the tracing-overhead base)
    trace: dict | None = None  # Tracer.table() of a traced round
    extra: dict = field(default_factory=dict)  # counters the body reports

    def fail(self, message: str, ops: int | None = None) -> None:
        self.failures.append(message)
        self.failed = self.attempted if ops is None else min(self.attempted, self.failed + ops)


def sha256_text(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def sha256_tree(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]  # ceil(n * q / 100)


median = statistics.median


def rmtree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
