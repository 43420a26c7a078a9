"""The job model.

A :class:`Job` is an immutable description of one parallel job as the
scheduler sees it: when it was submitted, how many processors it asks for,
how long the *user said* it would run (the estimate), and how long it
*actually* runs.  Scheduling outcomes (start/finish times) are recorded
separately by the simulator (:class:`repro.metrics.collector.CompletedJob`)
so a single workload object can be replayed through many schedulers.

The field set is a superset of what the experiments need and maps one-to-one
onto the Standard Workload Format (SWF) used by the Parallel Workloads
Archive, so real traces round-trip losslessly through
:mod:`repro.workload.swf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import WorkloadError

__all__ = ["Job", "Workload"]


@dataclass(frozen=True, slots=True)
class Job:
    """One parallel job.

    Parameters mirror the scheduling-relevant subset of SWF:

    * ``job_id`` — unique positive identifier within a workload.
    * ``submit_time`` — arrival time in seconds from workload start.
    * ``runtime`` — *actual* runtime in seconds (> 0).  The scheduler never
      sees this before the job finishes.
    * ``estimate`` — the user-supplied runtime estimate / wall-clock limit in
      seconds.  Schedulers plan with this value; jobs are killed at the
      estimate if the actual runtime exceeds it (SWF semantics).
    * ``procs`` — number of processors requested (rigid jobs, as in the paper).

    The remaining fields carry optional trace metadata (user, group, queue,
    ...) preserved for SWF round-tripping; ``-1`` means "unknown" per SWF.
    """

    job_id: int
    submit_time: float
    runtime: float
    estimate: float
    procs: int
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    status: int = -1
    avg_cpu_time: float = -1.0
    used_memory: float = -1.0
    requested_memory: float = -1.0
    preceding_job: int = -1
    think_time: float = -1.0

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise WorkloadError(f"job_id must be non-negative, got {self.job_id}")
        if not math.isfinite(self.submit_time) or self.submit_time < 0:
            raise WorkloadError(
                f"job {self.job_id}: submit_time must be finite and >= 0, "
                f"got {self.submit_time}"
            )
        if not math.isfinite(self.runtime) or self.runtime <= 0:
            raise WorkloadError(
                f"job {self.job_id}: runtime must be finite and > 0, got {self.runtime}"
            )
        if not math.isfinite(self.estimate) or self.estimate <= 0:
            raise WorkloadError(
                f"job {self.job_id}: estimate must be finite and > 0, "
                f"got {self.estimate}"
            )
        if self.procs <= 0:
            raise WorkloadError(
                f"job {self.job_id}: procs must be > 0, got {self.procs}"
            )

    @classmethod
    def _from_trusted_columns(cls, field_lists: Sequence[Sequence]) -> "tuple[Job, ...]":
        """Bulk-build jobs from pre-validated columns, skipping ``__post_init__``.

        ``field_lists`` is one Python list per field in declaration order
        (what :meth:`repro.workload.table.JobTable` hands over).  The
        caller vouches for the values: :class:`~repro.workload.table.JobTable`
        runs the vectorized equivalent of every ``__post_init__`` check at
        construction, so re-running the per-row finiteness/positivity
        checks here would only re-prove what the table already proved —
        per job, per cell, on every sweep.  Never feed this columns that
        did not come out of a successfully constructed ``JobTable``.

        The objects are field-for-field equal to ``Job(*row)`` ones
        (pinned by ``tests/properties/test_prop_trusted_jobs.py``).
        """
        return _trusted_jobs_bulk(field_lists)

    @property
    def effective_runtime(self) -> float:
        """Runtime as actually executed: jobs are killed at their estimate."""
        return min(self.runtime, self.estimate)

    @property
    def area(self) -> float:
        """Processor-seconds actually consumed (width x effective runtime)."""
        return self.procs * self.effective_runtime

    @property
    def estimated_area(self) -> float:
        """Processor-seconds the scheduler plans for (width x estimate)."""
        return self.procs * self.estimate

    @property
    def overestimation_factor(self) -> float:
        """estimate / actual runtime; 1.0 means a perfect estimate."""
        return self.estimate / self.runtime

    def with_estimate(self, estimate: float) -> "Job":
        """Return a copy of this job with a different user estimate."""
        return replace(self, estimate=estimate)

    def with_submit_time(self, submit_time: float) -> "Job":
        """Return a copy of this job submitted at a different time."""
        return replace(self, submit_time=submit_time)


def _make_trusted_job_factories():
    """Code-generate the fastest possible no-validation Job constructors.

    The generated single-row function is the dataclass ``__init__`` minus
    ``__post_init__``: one slot write per field.  Writes go through the
    slot *member descriptors* (``Job.__dict__[name].__set__``) rather
    than ``object.__setattr__``: a frozen dataclass only overrides
    ``__setattr__``, the descriptors still accept writes, and each
    pre-bound ``__set__`` skips the attribute-name hash and MRO walk
    that ``object.__setattr__(obj, "name", value)`` pays per call.
    Every descriptor is bound as a default argument so per-call global
    lookups disappear too.  The bulk variant additionally inlines the
    per-row call into a single loop over zipped columns, which is
    measurably faster again when materializing whole tables.
    """
    names = [f.name for f in fields(Job)]
    args = ", ".join(names)
    setters = {name: f"_set_{name}" for name in names}
    bind = ", ".join(
        f"{setter}=Job.__dict__['{name}'].__set__" for name, setter in setters.items()
    )
    row_body = "\n".join(
        f"    {setter}(self, {name})" for name, setter in setters.items()
    )
    loop_body = "\n".join(
        f"        {setter}(self, {name})" for name, setter in setters.items()
    )
    source = (
        f"def _trusted_job({args}, _new=object.__new__, _cls=Job, {bind}):\n"
        f"    self = _new(_cls)\n{row_body}\n    return self\n"
        f"\n"
        f"def _trusted_jobs_bulk(field_lists, _new=object.__new__, _cls=Job,\n"
        f"                       _zip=zip, {bind}):\n"
        f"    out = []\n"
        f"    ap = out.append\n"
        f"    for {args} in _zip(*field_lists):\n"
        f"        self = _new(_cls)\n{loop_body}\n"
        f"        ap(self)\n"
        f"    return tuple(out)\n"
    )
    namespace = {"Job": Job}
    exec(source, namespace)  # noqa: S102 - static, module-local source
    return namespace["_trusted_job"], namespace["_trusted_jobs_bulk"]


_trusted_job, _trusted_jobs_bulk = _make_trusted_job_factories()


@dataclass(frozen=True, slots=True)
class Workload:
    """An immutable, submit-time-ordered sequence of jobs plus machine size.

    ``max_procs`` is the size of the machine the workload targets; every job
    must fit on it.  Construction validates ordering, id uniqueness and
    fit so downstream code can rely on those invariants.
    """

    jobs: tuple[Job, ...]
    max_procs: int
    name: str = "workload"
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.max_procs <= 0:
            raise WorkloadError(f"max_procs must be > 0, got {self.max_procs}")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        seen: set[int] = set()
        prev_submit = -math.inf
        for job in self.jobs:
            if job.job_id in seen:
                raise WorkloadError(f"duplicate job_id {job.job_id} in workload")
            seen.add(job.job_id)
            if job.submit_time < prev_submit:
                raise WorkloadError(
                    f"jobs must be ordered by submit_time; job {job.job_id} "
                    f"submitted at {job.submit_time} after {prev_submit}"
                )
            prev_submit = job.submit_time
            if job.procs > self.max_procs:
                raise WorkloadError(
                    f"job {job.job_id} requests {job.procs} procs but the "
                    f"machine only has {self.max_procs}"
                )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> Job:
        return self.jobs[index]

    @classmethod
    def from_jobs(
        cls,
        jobs: Iterable[Job],
        max_procs: int,
        name: str = "workload",
        metadata: dict | None = None,
    ) -> "Workload":
        """Build a workload, sorting the jobs by (submit_time, job_id)."""
        ordered = tuple(sorted(jobs, key=lambda j: (j.submit_time, j.job_id)))
        return cls(ordered, max_procs, name, metadata or {})

    @classmethod
    def _trusted(
        cls,
        jobs: tuple[Job, ...],
        max_procs: int,
        name: str = "workload",
        metadata: dict | None = None,
    ) -> "Workload":
        """Build a workload from pre-validated jobs, skipping ``__post_init__``.

        For internal use by :meth:`repro.workload.table.JobTable.to_workload`
        and the simulator's table feed, where the table has already proven
        id uniqueness, submit ordering, and per-job fit vectorized.  The
        result is value-equal to a validated construction.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "jobs", jobs)
        object.__setattr__(self, "max_procs", max_procs)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "metadata", metadata if metadata is not None else {})
        return self

    @property
    def span(self) -> float:
        """Time between the first and last submissions (0 for <=1 job)."""
        if len(self.jobs) < 2:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    @property
    def total_area(self) -> float:
        """Total processor-seconds of actual work in the workload."""
        return sum(job.area for job in self.jobs)

    @property
    def offered_load(self) -> float:
        """Work arriving per unit of machine capacity per unit time.

        Computed as total actual processor-seconds divided by
        ``max_procs * span``; a value near 1.0 saturates the machine.
        """
        if self.span == 0:
            return math.inf
        return self.total_area / (self.max_procs * self.span)

    def interarrival_times(self) -> list[float]:
        """Consecutive submit-time gaps (length ``len(self) - 1``)."""
        return [
            b.submit_time - a.submit_time
            for a, b in zip(self.jobs, self.jobs[1:])
        ]

    def map_jobs(self, fn: Callable[[Job], Job], name: str | None = None) -> "Workload":
        """Apply ``fn`` to every job and rebuild (re-sorting by submit time)."""
        return Workload.from_jobs(
            (fn(job) for job in self.jobs),
            self.max_procs,
            name if name is not None else self.name,
            dict(self.metadata),
        )

    def describe(self) -> dict:
        """Summary statistics used by reports and sanity tests."""
        if not self.jobs:
            return {
                "name": self.name,
                "jobs": 0,
                "max_procs": self.max_procs,
            }
        runtimes = [j.runtime for j in self.jobs]
        widths = [j.procs for j in self.jobs]
        return {
            "name": self.name,
            "jobs": len(self.jobs),
            "max_procs": self.max_procs,
            "span_seconds": self.span,
            "offered_load": self.offered_load,
            "mean_runtime": sum(runtimes) / len(runtimes),
            "max_runtime": max(runtimes),
            "mean_width": sum(widths) / len(widths),
            "max_width": max(widths),
        }
