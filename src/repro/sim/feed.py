"""Arrival feeds: the engine's lazy view of a workload.

:class:`~repro.sim.engine.Simulator` never pushes workload arrivals onto
its event queue — it merges them into batches from a sorted source (see
the checkpoint/fork rationale in :mod:`repro.sim.engine`).  The *feed*
is that source, abstracted so the engine can consume either form of a
workload:

* :class:`RowArrivalFeed` — wraps a row :class:`~repro.workload.job.Workload`;
  the jobs already exist, so materialization is a slice.
* :class:`TableArrivalFeed` — wraps a columnar
  :class:`~repro.workload.table.JobTable` and materializes ``Job``
  objects *lazily per batch* through the trusted bulk constructor
  (:meth:`Job._from_trusted_columns`): the table proved every per-row
  invariant at construction, so no ``__post_init__`` re-validation and —
  until a batch actually arrives — no ``Job`` objects at all.  This is
  what kills the per-cell ``to_workload()`` tax: a simulation's warm-up,
  priming, and snapshot machinery touch only the submit-time array.

Both feeds expose the same small surface: ``submit_times`` (a plain
Python list of floats, non-decreasing — binary-searchable and cheap to
index from the hot loop), ``materialize(i, j)`` (jobs for rows ``[i, j)``,
forward-only for the table form), and the prefix/id helpers
``extend_workload`` and ``resume`` validate against.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workload.job import Job, Workload
from repro.workload.table import _ALL_COLUMNS, JobTable

__all__ = ["RowArrivalFeed", "TableArrivalFeed", "make_feed"]


class RowArrivalFeed:
    """Feed over an already-materialized row :class:`Workload`."""

    __slots__ = ("workload", "jobs", "submit_times", "n")

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.jobs = workload.jobs
        self.submit_times = [job.submit_time for job in self.jobs]
        self.n = len(self.jobs)

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def max_procs(self) -> int:
        return self.workload.max_procs

    def materialize(self, i: int, j: int) -> tuple[Job, ...]:
        """Jobs for rows ``[i, j)``."""
        return self.jobs[i:j]

    def as_workload(self) -> Workload:
        return self.workload

    def ids_from(self, i: int) -> set[int]:
        """Job ids of rows ``[i, n)``."""
        return {job.job_id for job in self.jobs[i:]}

    def first_prefix_mismatch(self, other, k: int) -> int | None:
        """First row < ``k`` where this feed and ``other`` disagree."""
        return _first_prefix_mismatch(self, other, k)


class TableArrivalFeed:
    """Feed over a columnar :class:`JobTable`; jobs materialize lazily.

    Construction converts each column to a builtin-typed Python list once
    (numpy scalar indexing is far slower than list indexing, and the hot
    loop reads ``submit_times`` constantly) and verifies submit ordering —
    the one workload invariant the table deliberately does not require
    (SWF ingest constructs, then sorts).  ``materialize`` then bulk-builds
    forward in blocks through the trusted constructor; the engine's
    arrival index is monotone, so nothing is ever built twice and a run
    that pauses early builds at most one block past its pause point.
    """

    __slots__ = (
        "table",
        "submit_times",
        "n",
        "_field_lists",
        "_jobs",
        "_workload",
    )

    def __init__(self, table: JobTable) -> None:
        self.table = table
        if not table._submit_is_sorted():
            arr = table.columns["submit_time"]
            i = int((arr[1:] < arr[:-1]).nonzero()[0][0]) + 1
            ids = table.columns["job_id"]
            raise WorkloadError(
                f"jobs must be ordered by submit_time; job {ids[i]} "
                f"submitted at {arr[i]} after {arr[i - 1]}"
            )
        self._field_lists = table.field_lists()
        self.submit_times = self._field_lists[1]
        self.n = len(self.submit_times)
        self._jobs: list[Job] = []
        self._workload: Workload | None = None

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def max_procs(self) -> int:
        return self.table.max_procs

    #: Rows materialized per demand miss.  Per-row construction costs a
    #: Python call per job; per-block bulk construction amortizes it to
    #: one sliced-column pass, and over-building at most a block keeps a
    #: paused run from ever materializing a distant tail.
    _BLOCK = 1024

    def materialize(self, i: int, j: int) -> list[Job]:
        """Jobs for rows ``[i, j)``, bulk-building a block on first demand."""
        jobs = self._jobs
        built = len(jobs)
        if j > built:
            want = built + self._BLOCK
            target = self.n if want > self.n else (want if want > j else j)
            jobs.extend(
                Job._from_trusted_columns(
                    [column[built:target] for column in self._field_lists]
                )
            )
        return jobs[i:j]

    def as_workload(self) -> Workload:
        """Row form of the whole table (trusted, cached; reuses built jobs)."""
        if self._workload is None:
            jobs = tuple(self.materialize(0, self.n))
            self._workload = Workload._trusted(
                jobs, self.max_procs, self.name, dict(self.table.metadata)
            )
        return self._workload

    def ids_from(self, i: int) -> set[int]:
        return set(self.table.columns["job_id"][i:].tolist())

    def first_prefix_mismatch(self, other, k: int) -> int | None:
        if isinstance(other, TableArrivalFeed):
            first: int | None = None
            mine, theirs = self.table.columns, other.table.columns
            for name in _ALL_COLUMNS:
                diff = (mine[name][:k] != theirs[name][:k]).nonzero()[0]
                if diff.size and (first is None or diff[0] < first):
                    first = int(diff[0])
            return first
        return _first_prefix_mismatch(self, other, k)


def _first_prefix_mismatch(feed, other, k: int) -> int | None:
    for index, (mine, theirs) in enumerate(
        zip(feed.materialize(0, k), other.materialize(0, k))
    ):
        if mine != theirs:
            return index
    return None


def make_feed(source: Workload | JobTable):
    """Build the right feed for a row workload or a columnar table."""
    if isinstance(source, JobTable):
        return TableArrivalFeed(source)
    return RowArrivalFeed(source)
