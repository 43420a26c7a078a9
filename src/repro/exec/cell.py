"""The :class:`Cell` — the unit of simulation work.

A *cell* is one fully-determined simulation: a workload spec crossed with
a scheduler kind, a priority policy, and the scheduler's keyword options.
It is frozen, hashable, and carries a stable content hash, so it can act
as a dictionary key in process memory, a file name in a persistent result
store, and a pickled work item shipped to a worker process — the same
identity in all three places.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.experiments.config import WorkloadSpec

__all__ = ["Cell", "CACHE_SCHEMA_VERSION"]

#: Version stamp of the cell-hash / result-store schema.  Bumping it
#: invalidates every persisted result (the hash changes and old files are
#: rejected on read), so bump whenever the simulation semantics or the
#: serialized layout change incompatibly.
CACHE_SCHEMA_VERSION = 1

#: Option values must be plain JSON-safe scalars so the content hash is
#: stable across processes and Python versions.
_SCALAR_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class Cell:
    """One simulation unit: (workload spec) x (scheduler, priority, options).

    ``options`` is a tuple of ``(name, value)`` pairs, normalized to
    sorted order on construction so two cells built with the same keyword
    arguments in any order compare (and hash) equal.  Use
    :meth:`Cell.make` to build one from keyword arguments directly.
    """

    spec: WorkloadSpec
    kind: str
    priority: str = "FCFS"
    options: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        from repro.experiments.runner import SCHEDULER_KINDS

        if self.kind not in SCHEDULER_KINDS:
            raise ConfigurationError(
                f"unknown scheduler kind {self.kind!r}; "
                f"expected one of {SCHEDULER_KINDS}"
            )
        from repro.sched.priority.policies import PRIORITY_POLICIES

        if self.priority not in PRIORITY_POLICIES:
            raise ConfigurationError(
                f"unknown priority {self.priority!r}; "
                f"expected one of {tuple(PRIORITY_POLICIES)}"
            )
        for pair in self.options:
            if (
                not isinstance(pair, tuple)
                or len(pair) != 2
                or not isinstance(pair[0], str)
            ):
                raise ConfigurationError(
                    f"cell options must be (name, value) pairs, got {pair!r}"
                )
            if not isinstance(pair[1], _SCALAR_TYPES):
                raise ConfigurationError(
                    f"cell option {pair[0]!r} must be a JSON-safe scalar, "
                    f"got {type(pair[1]).__name__}"
                )
        object.__setattr__(self, "options", tuple(sorted(self.options)))

    @classmethod
    def make(
        cls, spec: WorkloadSpec, kind: str, priority: str = "FCFS", **options
    ) -> "Cell":
        """Build a cell from the old keyword-style calling convention."""
        return cls(spec, kind, priority, tuple(options.items()))

    @property
    def options_dict(self) -> dict[str, object]:
        """The scheduler options as a plain keyword dictionary."""
        return dict(self.options)

    def to_payload(self) -> dict:
        """JSON-safe dict uniquely describing this cell (hash input)."""
        spec = self.spec
        return {
            "spec": {
                "trace": spec.trace,
                "n_jobs": spec.n_jobs,
                "seed": spec.seed,
                "load_scale": spec.load_scale,
                "estimate": spec.estimate,
            },
            "kind": self.kind,
            "priority": self.priority,
            "options": {name: value for name, value in self.options},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Cell":
        """Inverse of :meth:`to_payload`."""
        return cls.make(
            WorkloadSpec(**payload["spec"]),
            payload["kind"],
            payload["priority"],
            **payload["options"],
        )

    def __hash__(self) -> int:
        # Cells key every hot mapping in the execution layer (store
        # memory layer, chain grouping, bulk cache resolution), and the
        # generated dataclass hash recursively hashes the spec each call;
        # computing it once per instance is measurable at grid scale.
        try:
            return self._hash_value
        except AttributeError:
            value = hash((self.spec, self.kind, self.priority, self.options))
            object.__setattr__(self, "_hash_value", value)
            return value

    def __getstate__(self):
        # The cached hash must not travel to other processes: str hashes
        # depend on the interpreter's hash seed, which a spawned worker
        # does not share.
        state = dict(self.__dict__)
        state.pop("_hash_value", None)
        return state

    def content_hash(self) -> str:
        """Stable sha256 hex digest of this cell's content.

        Identical across processes, runs, and machines; changes whenever
        any field or :data:`CACHE_SCHEMA_VERSION` changes.
        """
        return _content_hash(self)

    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        spec = self.spec
        opts = ",".join(f"{k}={v}" for k, v in self.options)
        suffix = f" [{opts}]" if opts else ""
        return (
            f"{spec.trace}/j{spec.n_jobs}/s{spec.seed}/{spec.estimate}"
            f" {self.kind}-{self.priority}{suffix}"
        )


@lru_cache(maxsize=1 << 17)
def _content_hash(cell: Cell) -> str:
    payload = {"schema": CACHE_SCHEMA_VERSION, "cell": cell.to_payload()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
