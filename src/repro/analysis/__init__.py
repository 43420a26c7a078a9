"""Analysis layer: tabular results, statistics, reports, and text charts.

The environment is pandas-free by design; :mod:`repro.analysis.table`
provides the small column-table abstraction the experiments need (append
rows, group, pivot, render, CSV), and :mod:`repro.analysis.ascii_chart`
renders the paper's bar-chart figures as text.
"""

from repro.analysis.table import Table
from repro.analysis.stats import (
    mean,
    percentile,
    confidence_interval,
    relative_change_percent,
)
from repro.analysis.ascii_chart import bar_chart, grouped_bar_chart
from repro.analysis.report import ReportWriter, write_index, write_report

__all__ = [
    "Table",
    "mean",
    "percentile",
    "confidence_interval",
    "relative_change_percent",
    "bar_chart",
    "grouped_bar_chart",
    "ReportWriter",
    "write_report",
    "write_index",
]
