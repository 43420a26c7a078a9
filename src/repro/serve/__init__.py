"""Scheduler-as-a-service: live sessions, forked what-ifs, two front-ends.

The paper answers "how would this queue fare under conservative vs
EASY?" offline; this package answers it *live*.  A
:class:`~repro.serve.session.Session` holds one authoritative simulator
per policy, accepts streaming submissions, and serves what-if /
forecast queries by snapshot-forking the paused state — queries never
perturb the live trajectory.  Two ways in:

* **Python** — ``from repro.serve import Session``;
* **HTTP/JSON** — ``repro serve`` (see :mod:`repro.serve.http`).

See DESIGN.md §11 for the architecture and
:mod:`repro.metrics.streaming` for the bounded-memory metrics the live
simulators feed.
"""

from repro.serve.http import make_server, serve_forever
from repro.serve.session import (
    JobForecast,
    QueueForecast,
    RunningJob,
    Session,
    SessionBranch,
    SessionSnapshot,
    SessionStats,
    WhatIfReport,
)

__all__ = [
    "Session",
    "SessionBranch",
    "SessionSnapshot",
    "SessionStats",
    "WhatIfReport",
    "QueueForecast",
    "JobForecast",
    "RunningJob",
    "make_server",
    "serve_forever",
]
