"""ExecConfig: the execution layer's configuration as a frozen value.

One frozen, validated dataclass holds the execution settings (worker
count, cache directory, memory cap, progress callback) so they can be
inspected, compared, and threaded through code that builds its own
executors; every layer consumes it explicitly —

* :meth:`ExecConfig.build_store` — the store's ``cache_dir`` /
  ``memory_limit`` pair;
* :meth:`ExecConfig.build_executor` — the full executor: the in-process
  :class:`~repro.exec.executor.CellExecutor` for ``parallel=1``, the
  queue-draining :class:`~repro.exec.dist.DistExecutor` with
  ``parallel`` spawned workers otherwise;
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
from repro.exec.store import DEFAULT_MEMORY_LIMIT

__all__ = ["ExecConfig"]


@dataclass(frozen=True)
class ExecConfig:
    """Immutable configuration for the execution layer.

    ``parallel`` sets the worker-process count (1 = in-process),
    ``cache_dir`` + ``memory_limit`` shape the store.  Validation
    happens at construction, so an ``ExecConfig`` that exists is
    buildable.  ``progress`` (a callback) is excluded from equality and
    hashing.
    """

    parallel: int = 1
    cache_dir: str | Path | None = None
    progress: Callable | None = field(default=None, compare=False)
    memory_limit: int | None = DEFAULT_MEMORY_LIMIT

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise ConfigurationError(f"parallel must be >= 1, got {self.parallel}")
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

        return ResultStore(self.cache_dir, memory_limit=self.memory_limit)

    def build_executor(self):
        """Construct the executor (store included) this config describes.

        ``parallel > 1`` fans out through the lease queue in
        ``cache_dir`` — or, with no ``cache_dir``, in a temporary
        directory the executor owns and removes on ``close()``.
        """
        if self.parallel == 1:
            from repro.exec.executor import CellExecutor

            return CellExecutor(store=self.build_store(), progress=self.progress)
        from repro.exec.dist import DistExecutor

        executor = DistExecutor(
            self.cache_dir, workers=self.parallel, progress=self.progress
        )
        # The executor picked its store's directory (it may be one it
        # just created), so the memory cap is applied after the fact.
        executor.store.memory_limit = self.memory_limit
        return executor
