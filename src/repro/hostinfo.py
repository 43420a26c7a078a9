"""Host provenance: the facts a benchmark number is meaningless without.

``benchmarks/e2e/run.py`` prints :func:`host_provenance` as the first
line of every benchmark run, and the pytest-benchmark files
(``bench_profile.py``, ``bench_experiments.py``) stamp it into their
exported JSON: a 1-CPU container and a 16-core workstation produce
legitimately different numbers, and a reader comparing two runs should
see that instead of chasing a phantom regression.  Keys are chosen to be
stable, cheap, and dependency-free.
"""

from __future__ import annotations

import os
import platform

__all__ = ["host_provenance"]


def host_provenance() -> dict:
    """JSON-safe facts describing the measuring host."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.system().lower() or "unknown",
        "machine": platform.machine() or "unknown",
        "python": platform.python_version(),
    }
