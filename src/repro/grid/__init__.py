"""Multi-cluster grid scheduling with multiple simultaneous requests.

Reproduces the system of the paper's reference [12] — Subramani,
Kettimuthu, Srinivasan & Sadayappan, *Distributed job scheduling on
computational grids using multiple simultaneous requests* (HPDC 2002) —
on top of this package's single-site substrate: each grid *site* is a
machine plus any of the backfilling schedulers; a *metascheduler*
replicates every arriving job to K sites and cancels the losing replicas
the moment one site starts the job.  The metascheduler is itself a
scheduler, run by the same :class:`~repro.sim.engine.Simulator` loop as a
single site.
"""

from repro.grid.site import GridSite
from repro.grid.dispatch import (
    DispatchPolicy,
    LeastLoadedDispatch,
    RandomDispatch,
    RoundRobinDispatch,
)
from repro.grid.engine import GridSimulator, GridResult

__all__ = [
    "GridSite",
    "DispatchPolicy",
    "LeastLoadedDispatch",
    "RandomDispatch",
    "RoundRobinDispatch",
    "GridSimulator",
    "GridResult",
]
