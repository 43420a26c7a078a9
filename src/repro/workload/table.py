"""Columnar (struct-of-arrays) view of a workload.

A :class:`JobTable` holds the same information as a
:class:`~repro.workload.job.Workload` — one row per job, every ``Job``
field as a numpy column — and round-trips losslessly to and from the
row form.  It exists for the sweep pipeline:

* **vectorized derivation** — the per-condition transforms of a sweep
  (load scaling, estimate stamping, truncation) are a handful of array
  operations on a table, where the row path rebuilds every ``Job``
  object per transform;
* **vectorized ingest** — the SWF reader parses a trace straight into
  columns (:func:`repro.workload.swf.read_swf_table`).

Equivalence contract: every columnar operation produces **float-identical**
results to its row counterpart in :mod:`repro.workload.transforms` /
:mod:`repro.workload.estimates`.  The arithmetic is elementwise IEEE
operations in the same order, and RNG-consuming transforms draw from the
generator stream in exactly the layout the scalar path does (see
``EstimateModel.column_estimates``).  The differential suite in
``tests/properties/test_prop_columnar_equivalence.py`` pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.workload.job import Job, Workload

__all__ = ["JobTable", "INT_COLUMNS", "FLOAT_COLUMNS"]

#: Integer-valued Job fields, in Job declaration order.
INT_COLUMNS = (
    "job_id",
    "procs",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "status",
    "preceding_job",
)

#: Float-valued Job fields, in Job declaration order.
FLOAT_COLUMNS = (
    "submit_time",
    "runtime",
    "estimate",
    "avg_cpu_time",
    "used_memory",
    "requested_memory",
    "think_time",
)

_ALL_COLUMNS = INT_COLUMNS + FLOAT_COLUMNS

#: Job dataclass field order — ``Job(*row)`` positional construction in
#: :meth:`JobTable.to_workload` depends on it.
_JOB_FIELD_ORDER = (
    "job_id",
    "submit_time",
    "runtime",
    "estimate",
    "procs",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "status",
    "avg_cpu_time",
    "used_memory",
    "requested_memory",
    "preceding_job",
    "think_time",
)

assert _JOB_FIELD_ORDER == tuple(f.name for f in fields(Job))


@dataclass(frozen=True)
class JobTable:
    """Struct-of-arrays form of a workload: one numpy column per Job field.

    Integer columns are ``int64``, float columns ``float64`` — wide enough
    that the row form's Python ints/floats round-trip exactly.  Instances
    are immutable by convention: derivation methods return new tables and
    never mutate columns in place (callers may hold views).
    """

    columns: dict[str, np.ndarray]
    max_procs: int
    name: str = "workload"
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.max_procs <= 0:
            raise WorkloadError(f"max_procs must be > 0, got {self.max_procs}")
        missing = [c for c in _ALL_COLUMNS if c not in self.columns]
        if missing:
            raise WorkloadError(f"JobTable is missing columns {missing}")
        lengths = {c: len(self.columns[c]) for c in _ALL_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise WorkloadError(f"JobTable columns have unequal lengths: {lengths}")
        self._validate_rows()

    def _validate_rows(self) -> None:
        """Vectorized equivalent of every per-row ``Job.__post_init__`` check
        plus the row-local ``Workload`` invariants (id uniqueness, machine
        fit).  Running them here — once, on arrays — is what licenses the
        trusted bulk constructor downstream: any table that exists has
        already proven what ``__post_init__`` would re-prove per job per
        cell.  Submit *ordering* is deliberately not required (SWF ingest
        constructs, then sorts); it is checked where order matters
        (:meth:`to_workload`, the simulator's arrival feed).

        Error messages match the row constructors', reported for the first
        offending row in row order.
        """
        cols = self.columns
        n = len(cols["job_id"])
        if n == 0:
            return
        ids = cols["job_id"]
        submit = cols["submit_time"]
        runtime = cols["runtime"]
        estimate = cols["estimate"]
        procs = cols["procs"]
        bad_id = ids < 0
        bad_submit = ~np.isfinite(submit) | (submit < 0)
        bad_runtime = ~np.isfinite(runtime) | (runtime <= 0)
        bad_estimate = ~np.isfinite(estimate) | (estimate <= 0)
        bad_procs = procs <= 0
        bad = bad_id | bad_submit | bad_runtime | bad_estimate | bad_procs
        if bad.any():
            i = int(np.argmax(bad))
            # Same per-field priority as Job.__post_init__.
            if bad_id[i]:
                raise WorkloadError(f"job_id must be non-negative, got {ids[i]}")
            if bad_submit[i]:
                raise WorkloadError(
                    f"job {ids[i]}: submit_time must be finite and >= 0, "
                    f"got {submit[i]}"
                )
            if bad_runtime[i]:
                raise WorkloadError(
                    f"job {ids[i]}: runtime must be finite and > 0, got {runtime[i]}"
                )
            if bad_estimate[i]:
                raise WorkloadError(
                    f"job {ids[i]}: estimate must be finite and > 0, "
                    f"got {estimate[i]}"
                )
            raise WorkloadError(f"job {ids[i]}: procs must be > 0, got {procs[i]}")
        _, first_index, inverse = np.unique(
            ids, return_index=True, return_inverse=True
        )
        dup = first_index[inverse] != np.arange(n)
        unfit = procs > self.max_procs
        if dup.any() or unfit.any():
            i = int(np.argmax(dup | unfit))
            # Same per-row priority as Workload.__post_init__.
            if dup[i]:
                raise WorkloadError(f"duplicate job_id {ids[i]} in workload")
            raise WorkloadError(
                f"job {ids[i]} requests {procs[i]} procs but the "
                f"machine only has {self.max_procs}"
            )

    def _submit_is_sorted(self) -> bool:
        """Whether submit_time is non-decreasing (cached per instance)."""
        cached = self.__dict__.get("_submit_sorted")
        if cached is None:
            submit = self.columns["submit_time"]
            cached = bool(len(submit) < 2 or np.all(submit[1:] >= submit[:-1]))
            object.__setattr__(self, "_submit_sorted", cached)
        return cached

    def __len__(self) -> int:
        return len(self.columns["job_id"])

    def __getattr__(self, name: str) -> np.ndarray:
        # Column access sugar: table.submit_time is columns["submit_time"].
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    # -- construction / conversion --------------------------------------------

    @classmethod
    def from_workload(cls, workload: Workload) -> "JobTable":
        """Decompose a row-form workload into columns (lossless)."""
        jobs = workload.jobs
        columns: dict[str, np.ndarray] = {}
        for name in INT_COLUMNS:
            columns[name] = np.fromiter(
                (getattr(j, name) for j in jobs), dtype=np.int64, count=len(jobs)
            )
        for name in FLOAT_COLUMNS:
            columns[name] = np.fromiter(
                (getattr(j, name) for j in jobs), dtype=np.float64, count=len(jobs)
            )
        return cls(
            columns=columns,
            max_procs=workload.max_procs,
            name=workload.name,
            metadata=dict(workload.metadata),
        )

    def field_lists(self) -> list[list]:
        """One builtin-typed Python list per Job field, in field order.

        ``ndarray.tolist`` bulk conversion (one call per column) yields
        builtin ``int``/``float`` so downstream JSON serialization of
        ``Job`` fields keeps working.  This is the handoff format of
        :meth:`Job._from_trusted_columns` and the simulator's table feed.
        """
        cols = self.columns
        return [cols[name].tolist() for name in _JOB_FIELD_ORDER]

    def to_workload(self) -> Workload:
        """Rebuild the row form.  Inverse of :meth:`from_workload`.

        Jobs are materialized through the trusted bulk constructor —
        construction of this table already ran the vectorized equivalent
        of every per-row check (see :meth:`_validate_rows`), so re-running
        ``__post_init__`` per job would only re-prove it.  When the table
        is submit-sorted the ``Workload`` wrapper is trusted too;
        an unsorted table still goes through validated ``Workload``
        construction so callers get the identical ordering error.
        """
        jobs = Job._from_trusted_columns(self.field_lists())
        if self._submit_is_sorted():
            return Workload._trusted(jobs, self.max_procs, self.name, dict(self.metadata))
        return Workload(jobs, self.max_procs, self.name, dict(self.metadata))

    # -- derivation (the columnar transforms) ----------------------------------

    def _with(self, *, columns=None, name=None, metadata=None) -> "JobTable":
        return replace(
            self,
            columns=columns if columns is not None else self.columns,
            name=name if name is not None else self.name,
            metadata=metadata if metadata is not None else dict(self.metadata),
        )

    def sorted_by_submit(self) -> "JobTable":
        """Rows reordered by (submit_time, job_id) — Workload.from_jobs order."""
        order = np.lexsort((self.columns["job_id"], self.columns["submit_time"]))
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self._with(
            columns={name: arr[order] for name, arr in self.columns.items()}
        )

    def take(self, rows) -> "JobTable":
        """Row subset/reorder by index array or slice."""
        return self._with(
            columns={name: arr[rows] for name, arr in self.columns.items()}
        )

    def truncate(
        self,
        *,
        max_jobs: int | None = None,
        skip: int = 0,
        name: str | None = None,
    ) -> "JobTable":
        """Columnar :func:`repro.workload.transforms.truncate`."""
        if skip < 0:
            raise ConfigurationError(f"skip must be >= 0, got {skip}")
        if max_jobs is not None and max_jobs < 0:
            raise ConfigurationError(f"max_jobs must be >= 0, got {max_jobs}")
        stop = None if max_jobs is None else skip + max_jobs
        table = self.take(slice(skip, stop))
        return table if name is None else table._with(name=name)

    def scale_load(self, factor: float, *, name: str | None = None) -> "JobTable":
        """Columnar :func:`repro.workload.transforms.scale_load`.

        Same elementwise arithmetic (``origin + (t - origin) * factor``)
        as the row path, so the resulting submit times are bit-identical.
        """
        if factor <= 0:
            raise ConfigurationError(f"load scale factor must be > 0, got {factor}")
        default_name = f"{self.name}-x{1.0 / factor:.2f}load"
        if len(self) == 0:
            # Row path returns the workload untouched (name and all).
            return self
        submit = self.columns["submit_time"]
        origin = submit[0]
        columns = dict(self.columns)
        columns["submit_time"] = origin + (submit - origin) * factor
        metadata = dict(self.metadata)
        metadata["load_scale_factor"] = metadata.get("load_scale_factor", 1.0) * factor
        return self._with(
            columns=columns,
            name=name if name is not None else default_name,
            metadata=metadata,
        )

    def apply_estimates(
        self, model, *, seed: int | np.random.Generator = 0, name: str | None = None
    ) -> "JobTable":
        """Columnar :func:`repro.workload.transforms.apply_estimates`.

        Requires the model to implement ``column_estimates`` (all built-in
        models do); the draws consume the generator stream in exactly the
        scalar layout, so estimates are bit-identical to the row path.
        """
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        estimates = np.asarray(
            model.column_estimates(self.columns["runtime"], rng), dtype=np.float64
        )
        columns = dict(self.columns)
        columns["estimate"] = estimates
        metadata = dict(self.metadata)
        metadata["estimate_model"] = repr(model)
        return self._with(
            columns=columns,
            name=name if name is not None else self.name,
            metadata=metadata,
        )
