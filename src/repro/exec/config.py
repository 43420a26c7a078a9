"""ExecConfig: the execution layer's configuration as a frozen value.

One frozen, validated dataclass holds the execution knobs (worker count,
cache directory, chunk size, ...) so they can be inspected, compared, and
threaded through code that builds its own executors; every layer
consumes it explicitly —

* ``ExecConfig.build_store()`` / :meth:`ResultStore.from_config
  <repro.exec.store.ResultStore.from_config>` — the store's
  ``cache_dir`` / ``backend`` / ``memory_limit`` triple;
* ``ExecConfig.build_executor()`` / :meth:`CellExecutor.from_config
  <repro.exec.executor.CellExecutor.from_config>` — the full executor
  (which passes ``use_chains`` down to the chain planner);
* :func:`repro.exec.set_default_executor` — installs a config (or a
  ready executor) as the process-wide default behind
  :func:`repro.exec.run_cells`.

Being frozen, configs are safe to share, hash into cache keys, and vary
with :meth:`ExecConfig.replace`::

    base = ExecConfig(parallel=8, cache_dir="results/")
    serial = base.replace(parallel=1)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError
from repro.exec.backends import BACKEND_CHOICES
from repro.exec.store import DEFAULT_MEMORY_LIMIT

__all__ = ["ExecConfig"]


@dataclass(frozen=True)
class ExecConfig:
    """Immutable configuration for the execution layer.

    Fields mirror the knobs :class:`~repro.exec.executor.CellExecutor`
    and :class:`~repro.exec.store.ResultStore` accept: ``parallel`` sets
    the worker-process count, ``cache_dir`` + ``store_backend`` +
    ``memory_limit`` shape the store, ``chunk_size`` /
    ``preload_workloads`` / ``use_chains`` tune dispatch.
    Validation happens at construction, so an ``ExecConfig`` that exists
    is buildable.  ``progress`` (a callback) is excluded from equality
    and hashing.
    """

    parallel: int = 1
    cache_dir: str | Path | None = None
    max_retries: int = 1
    progress: Callable | None = field(default=None, compare=False)
    chunk_size: int | None = None
    preload_workloads: bool = True
    use_chains: bool = True
    store_backend: str = "auto"
    memory_limit: int | None = DEFAULT_MEMORY_LIMIT

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise ConfigurationError(f"parallel must be >= 1, got {self.parallel}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )
        if self.store_backend not in BACKEND_CHOICES:
            raise ConfigurationError(
                f"unknown store backend {self.store_backend!r}; "
                f"expected one of {sorted(BACKEND_CHOICES)}"
            )
        if self.memory_limit is not None and self.memory_limit < 1:
            raise ConfigurationError(
                f"memory_limit must be >= 1 or None, got {self.memory_limit}"
            )

    def replace(self, **changes) -> "ExecConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def build_store(self):
        """Construct the :class:`~repro.exec.store.ResultStore` this
        config describes."""
        from repro.exec.store import ResultStore

        return ResultStore.from_config(self)

    def build_executor(self):
        """Construct the :class:`~repro.exec.executor.CellExecutor`
        (store included) this config describes."""
        from repro.exec.executor import CellExecutor

        return CellExecutor.from_config(self)
