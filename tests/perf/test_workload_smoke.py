"""Perf smoke test: a row ``Workload`` re-validates no ``Job`` per step.

On one CTC cell (2,000 jobs, seed 1) this counts ``Job.__post_init__``
calls — the per-job validation a row body pays each time it rebuilds a
job — through a counting wrapper patched onto the class, for three paths
a row ``Workload`` takes: ``read_swf`` of the cell written out as SWF,
and ``scale_load`` and ``apply_estimates`` on the row workload.  Each
made 2,000 while it had a row body of its own; through ``JobTable`` it
makes none, because the table validates its columns once, vectorized,
and materializes jobs through the trusted constructor.  Wall-clock
belongs to ``benchmarks/e2e`` (``swf_replay``, ``extension_engines``);
this runs on every push (``-m perf``).
"""

import io

import pytest

from repro.experiments.config import WorkloadSpec
from repro.experiments.runner import make_workload
from repro.workload.estimates import UserEstimateModel
from repro.workload.job import Job
from repro.workload.swf import read_swf, write_swf
from repro.workload.transforms import apply_estimates, scale_load

JOBS = 2_000


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

    calls = 0
    post_init = Job.__post_init__

    def counting_post_init(self):
        nonlocal calls
        calls += 1
        post_init(self)

    monkeypatch.setattr(Job, "__post_init__", counting_post_init)
    result = run()
    monkeypatch.undo()

    assert len(result) == JOBS
    assert calls == 0
