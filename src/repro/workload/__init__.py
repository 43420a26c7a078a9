"""Workload substrate: job model, SWF I/O, estimate models, transforms, generators.

The paper drives its simulations with the CTC and SDSC SP2 traces from the
Parallel Workloads Archive.  This subpackage provides (a) a complete Standard
Workload Format reader/writer so real archive logs can be used when available,
and (b) statistical workload generators calibrated to the published
characteristics of those traces so the experiments are reproducible offline.
"""

from repro.workload.job import Job, Workload
from repro.workload.table import JobTable
from repro.workload.swf import read_swf, read_swf_table, write_swf, SWFHeader
from repro.workload.estimates import (
    EstimateModel,
    ExactEstimate,
    MultiplicativeEstimate,
    UserEstimateModel,
    ClampedEstimate,
)
from repro.workload.transforms import (
    scale_load,
    truncate,
    apply_estimates,
    shift_to_zero,
)
from repro.workload.stats import characterize, characterization_table

__all__ = [
    "Job",
    "Workload",
    "JobTable",
    "read_swf",
    "read_swf_table",
    "write_swf",
    "SWFHeader",
    "EstimateModel",
    "ExactEstimate",
    "MultiplicativeEstimate",
    "UserEstimateModel",
    "ClampedEstimate",
    "scale_load",
    "truncate",
    "apply_estimates",
    "shift_to_zero",
    "characterize",
    "characterization_table",
]
