"""Workload transformations.

These are the pre-processing steps the paper applies to its traces:

* :func:`scale_load` — "A high load condition was simulated by shrinking the
  inter-arrival times of jobs" (Section 3).
* :func:`apply_estimates` — attach a user-estimate model to every job
  (Sections 4 and 5).
* :func:`truncate`, :func:`filter_jobs`, :func:`renumber`,
  :func:`shift_to_zero` — the usual trace hygiene operations (warm-up
  removal, subsetting, id normalization).

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

from repro.errors import ConfigurationError
from repro.workload.estimates import EstimateModel
from repro.workload.job import Job, Workload
from repro.workload.table import JobTable

__all__ = [
    "scale_load",
    "apply_estimates",
    "truncate",
    "filter_jobs",
    "renumber",
    "shift_to_zero",
    "merge",
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


def filter_jobs(
    workload: Workload,
    predicate: Callable[[Job], bool],
    *,
    name: str | None = None,
) -> Workload:
    """Keep only jobs satisfying ``predicate`` (alias of Workload.select)."""
    return workload.select(predicate, name=name)


def renumber(workload: Workload, *, start: int = 1, name: str | None = None) -> Workload:
    """Re-assign consecutive job ids starting at ``start`` (arrival order)."""
    jobs = tuple(
        job.with_job_id(start + index) for index, job in enumerate(workload.jobs)
    )
    return Workload(
        jobs,
        workload.max_procs,
        name if name is not None else workload.name,
        dict(workload.metadata),
    )


def merge(
    workloads: list[Workload],
    *,
    max_procs: int | None = None,
    name: str = "merged",
) -> Workload:
    """Interleave several arrival streams into one workload.

    Jobs are re-sorted by submit time and renumbered consecutively (the
    source stream index is preserved in each job's ``partition`` field so
    analyses can still attribute jobs).  ``max_procs`` defaults to the
    widest of the inputs.
    """
    if not workloads:
        raise ConfigurationError("merge needs at least one workload")
    procs = max_procs if max_procs is not None else max(w.max_procs for w in workloads)
    combined = []
    for stream_index, workload in enumerate(workloads):
        for job in workload:
            combined.append(
                Job(
                    job_id=0,  # renumbered below
                    submit_time=job.submit_time,
                    runtime=job.runtime,
                    estimate=job.estimate,
                    procs=job.procs,
                    user_id=job.user_id,
                    group_id=job.group_id,
                    executable=job.executable,
                    queue=job.queue,
                    partition=stream_index,
                    status=job.status,
                )
            )
    combined.sort(key=lambda j: j.submit_time)
    jobs = tuple(
        job.with_job_id(index + 1) for index, job in enumerate(combined)
    )
    return Workload(
        jobs,
        procs,
        name=name,
        metadata={"merged_from": [w.name for w in workloads]},
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
