"""Perf smoke test: the workload layer re-validates no ``Job`` per step.

On one CTC cell (2,000 jobs, seed 1) this counts ``Job.__post_init__``
calls — the per-job validation a row body pays each time it rebuilds a
job — through a counting wrapper patched onto the class, for three paths
a row ``Workload`` takes: ``read_swf`` of the cell written out as SWF,
and ``scale_load`` and ``apply_estimates`` on the row workload.  Each
made 2,000 while it had a row body of its own; through ``JobTable`` it
makes none, because the table validates its columns once, vectorized,
and materializes jobs through the trusted constructor.  Generation is
pinned the same way: ``base_workload_table`` draws each trace straight
into columns, where it built and validated one ``Job`` per draw (2,000
here).  Wall-clock belongs to ``benchmarks/e2e`` (``swf_replay``,
``extension_engines``, ``cached_sweep``); this runs on every push
(``-m perf``).
"""

import io

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import base_workload_table, clear_cache, make_workload
from repro.workload.estimates import UserEstimateModel
from repro.workload.job import Job
from repro.workload.swf import read_swf, write_swf
from repro.workload.transforms import apply_estimates, scale_load

JOBS = 2_000


def counting_post_init(monkeypatch, cls) -> dict:
    """Patch ``cls.__post_init__`` with a wrapper counting its calls."""
    counts = {"calls": 0}
    post_init = cls.__post_init__

    def counting(self):
        counts["calls"] += 1
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


@pytest.mark.perf
@pytest.mark.parametrize("path", ["read_swf", "scale_load", "apply_estimates"])
def test_row_paths_validate_no_job(monkeypatch, path):
    workload = make_workload(WorkloadSpec("CTC", JOBS, 1))
    buffer = io.StringIO()
    write_swf(workload, buffer)
    run = {
        "read_swf": lambda: read_swf(io.StringIO(buffer.getvalue())),
        "scale_load": lambda: scale_load(workload, 0.75),
        "apply_estimates": lambda: apply_estimates(workload, UserEstimateModel(), seed=1),
    }[path]

    counts = counting_post_init(monkeypatch, Job)
    result = run()
    monkeypatch.undo()

    assert len(result) == JOBS
    assert counts["calls"] == 0


@pytest.mark.perf
@pytest.mark.parametrize("trace", ["CTC", "SDSC", "LUBLIN"])
def test_generation_validates_no_job(monkeypatch, trace):
    clear_cache()
    counts = counting_post_init(monkeypatch, Job)
    table = base_workload_table(trace, JOBS, 1)
    monkeypatch.undo()

    assert len(table) == JOBS
    assert counts["calls"] == 0
