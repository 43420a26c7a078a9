"""Thin HTTP/JSON skin over a live session (the ``repro serve`` CLI).

Stdlib-only (:class:`http.server.ThreadingHTTPServer`): one process, one
authoritative :class:`~repro.serve.session.Session`, JSON in/out.  Every
handler thread takes the session lock only to mutate or fork, and drains
query branches outside it, so slow what-ifs never block submissions.

Endpoints (all JSON bodies; errors come back as
``{"error": "..."}`` with a 4xx status):

========  ==============  ================================================
method    path            action
========  ==============  ================================================
GET       /healthz        liveness probe — ``{"ok": true}``
GET       /state          :meth:`Session.stats` card (``?policy=`` opt.)
POST      /submit         body = job payload → ``{"job_id": ...}``
POST      /advance        body ``{"to_time": t}`` or ``{"dt": d}``
POST      /what-if        body ``{"job": {...}?, "policy": "..."?}``
POST      /forecast       body ``{"horizon": h, "policy": "..."?}``
GET       /metrics        full RunMetrics payload (``?policy=`` opt.)
========  ==============  ================================================

Use :func:`make_server` (port 0 for an ephemeral port) in tests and
embedders; :func:`serve_forever` is the CLI entry point.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, SimulationError
from repro.serve.protocol import (
    job_from_payload,
    queue_forecast_to_payload,
    run_metrics_to_payload,
    stats_to_payload,
    what_if_to_payload,
)
from repro.serve.session import Session
from repro.workload.job import Job

__all__ = ["SessionHTTPServer", "make_server", "serve_forever"]

_MAX_BODY_BYTES = 1 << 20


class SessionHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that owns one session plus its lock."""

    daemon_threads = True

    def __init__(self, address, handler, session: Session) -> None:
        super().__init__(address, handler)
        self.session = session
        self.session_lock = threading.Lock()


class _Handler(BaseHTTPRequestHandler):
    """Request handler: routes, decodes JSON, maps errors to statuses."""

    server: SessionHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # quiet by default; the CLI prints its own line per request

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise SimulationError(f"request body too large ({length} bytes)")
        if length == 0:
            return {}
        try:
            payload = json.loads(self.rfile.read(length).decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise SimulationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SimulationError("request body must be a JSON object")
        return payload

    def _policy(self) -> str | None:
        query = parse_qs(urlparse(self.path).query)
        values = query.get("policy")
        return values[0] if values else None

    def _route(self, method: str) -> None:
        path = urlparse(self.path).path
        try:
            handler = getattr(self, f"_{method}_{path.strip('/').replace('-', '_')}")
        except AttributeError:
            self._reply(404, {"error": f"no such endpoint: {method} {path}"})
            return
        try:
            handler()
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("get")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._route("post")

    # -- endpoints ------------------------------------------------------------

    def _get_healthz(self) -> None:
        with self.server.session_lock:
            clock = self.server.session.clock
        self._reply(200, {"ok": True, "clock": clock})

    def _get_state(self) -> None:
        with self.server.session_lock:
            stats = self.server.session.stats(self._policy())
        self._reply(200, stats_to_payload(stats))

    def _get_metrics(self) -> None:
        with self.server.session_lock:
            metrics = self.server.session.metrics(self._policy())
        self._reply(200, run_metrics_to_payload(metrics))

    def _post_submit(self) -> None:
        kwargs = job_from_payload(self._read_body())
        with self.server.session_lock:
            job_id = self.server.session.submit(**kwargs)
            clock = self.server.session.clock
        self._reply(200, {"job_id": job_id, "clock": clock})

    def _post_advance(self) -> None:
        body = self._read_body()
        to_time = body.get("to_time")
        dt = body.get("dt")
        with self.server.session_lock:
            clock = self.server.session.advance(to_time, dt=dt)
        self._reply(200, {"clock": clock})

    def _post_what_if(self) -> None:
        body = self._read_body()
        policy = body.get("policy")
        job = None
        with self.server.session_lock:
            # fork under the lock; the expensive drain happens outside it
            if body.get("job") is not None:
                kwargs = job_from_payload(body["job"])
                session = self.server.session
                job = Job(
                    job_id=kwargs.get("job_id", session._next_id),
                    submit_time=kwargs.get("submit_time", session.clock),
                    runtime=kwargs["runtime"],
                    estimate=kwargs.get("estimate", kwargs["runtime"]),
                    procs=kwargs["procs"],
                )
            branch = self.server.session.branch(policy)
        report = branch.what_if(job)
        include_metrics = bool(body.get("include_metrics", False))
        self._reply(200, what_if_to_payload(report, include_metrics=include_metrics))

    def _post_forecast(self) -> None:
        body = self._read_body()
        horizon = body.get("horizon")
        if not isinstance(horizon, (int, float)) or isinstance(horizon, bool):
            raise SimulationError("forecast body needs a numeric 'horizon'")
        with self.server.session_lock:
            branch = self.server.session.branch(body.get("policy"))
        forecast = branch.forecast(float(horizon))
        self._reply(200, queue_forecast_to_payload(forecast))


def make_server(
    session: Session, host: str = "127.0.0.1", port: int = 0
) -> SessionHTTPServer:
    """Build (but don't start) the HTTP server; port 0 picks a free port.

    Start it with ``threading.Thread(target=server.serve_forever)`` in
    tests, or call :func:`serve_forever` to block.
    """
    return SessionHTTPServer((host, port), _Handler, session)


def serve_forever(session: Session, host: str = "127.0.0.1", port: int = 8537) -> None:
    """Run the HTTP layer until interrupted (the ``repro serve`` command)."""
    server = make_server(session, host, port)
    bound = server.server_address
    print(
        f"serving session {session.name!r} ({session.total_procs} procs, "
        f"policies {list(session.policies)}) on http://{bound[0]}:{bound[1]}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
