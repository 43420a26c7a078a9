"""Workload transformations.

These are the pre-processing steps the paper applies to its traces:

* :func:`scale_load` — "A high load condition was simulated by shrinking the
  inter-arrival times of jobs" (Section 3).
* :func:`apply_estimates` — attach a user-estimate model to every job
  (Sections 4 and 5).
* :func:`truncate`, :func:`shift_to_zero` — trace hygiene (warm-up
  removal, a zero time origin).

All transforms are pure: they return new workloads.

:func:`scale_load`, :func:`apply_estimates` and :func:`truncate` have one
body each, the :class:`~repro.workload.table.JobTable` method: a
``JobTable`` argument is transformed as is (the sweep pipeline derives
many (load, estimate) conditions from one base table), and a
:class:`Workload` goes ``JobTable.from_workload`` → transform →
``to_workload()``, so no ``Job`` is re-validated per step.  The
row-at-a-time bodies they replaced are frozen in
``tests/oracles/row_pipeline.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.workload.estimates import EstimateModel
from repro.workload.job import Workload
from repro.workload.table import JobTable

__all__ = [
    "scale_load",
    "apply_estimates",
    "truncate",
    "shift_to_zero",
]


def _on_table(
    workload: Workload | JobTable, derive: Callable[[JobTable], JobTable]
) -> Workload | JobTable:
    """Apply a table derivation to either form, returning the form given."""
    if isinstance(workload, JobTable):
        return derive(workload)
    return derive(JobTable.from_workload(workload)).to_workload()


def scale_load(
    workload: Workload | JobTable, factor: float, *, name: str | None = None
) -> Workload | JobTable:
    """Multiply all inter-arrival times by ``factor``.

    ``factor < 1`` compresses arrivals and raises the offered load by
    ``1/factor``; ``factor > 1`` stretches them.  The first job keeps its
    submit time; runtimes, widths and estimates are untouched, so the work
    content is identical — only the arrival pressure changes.  This is the
    paper's high-load transformation.
    """
    return _on_table(workload, lambda table: table.scale_load(factor, name=name))


def apply_estimates(
    workload: Workload | JobTable,
    model: EstimateModel,
    *,
    seed: int | np.random.Generator = 0,
    name: str | None = None,
) -> Workload | JobTable:
    """Replace every job's estimate with a draw from ``model``.

    ``seed`` may be an integer (a fresh generator is created, making the
    transform reproducible) or an existing :class:`numpy.random.Generator`.
    """
    return _on_table(
        workload, lambda table: table.apply_estimates(model, seed=seed, name=name)
    )


def truncate(
    workload: Workload | JobTable,
    *,
    max_jobs: int | None = None,
    skip: int = 0,
    name: str | None = None,
) -> Workload | JobTable:
    """Drop the first ``skip`` jobs, then keep at most ``max_jobs`` jobs."""
    return _on_table(
        workload, lambda table: table.truncate(max_jobs=max_jobs, skip=skip, name=name)
    )


def shift_to_zero(workload: Workload, *, name: str | None = None) -> Workload:
    """Shift submit times so the first job arrives at t = 0."""
    if len(workload) == 0:
        return workload
    origin = workload.jobs[0].submit_time
    if origin == 0:
        return workload
    jobs = tuple(
        job.with_submit_time(job.submit_time - origin) for job in workload.jobs
    )
    return Workload(
        jobs,
        workload.max_procs,
        name if name is not None else workload.name,
        dict(workload.metadata),
    )
