"""Experiment report writer: persist results as Markdown and CSV.

Turns one or more :class:`~repro.experiments.runner.ExperimentResult`
objects into a results directory a paper artifact would ship::

    results/
      README.md            index with every experiment's trend checklist
      figure1/
        report.md          tables + charts + findings, rendered
        overall_metrics.csv
      ...

Used by ``python -m repro report`` and directly from notebooks/scripts.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentResult

__all__ = ["slugify", "write_report", "write_index", "ReportWriter"]


def slugify(name: str) -> str:
    """File-system-safe slug for a table/chart name."""
    slug = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    return slug or "unnamed"


def write_report(result: ExperimentResult, directory: str | os.PathLike) -> Path:
    """Write one experiment's full report; returns the experiment directory."""
    base = Path(directory) / slugify(result.experiment_id)
    base.mkdir(parents=True, exist_ok=True)

    lines = [f"# {result.experiment_id} — {result.title}", ""]
    for name, table in result.tables.items():
        csv_name = f"{slugify(name)}.csv"
        table.to_csv(base / csv_name)
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(table.render())
        lines.append("```")
        lines.append(f"(also as [`{csv_name}`]({csv_name}))")
        lines.append("")
    for name, chart in result.charts.items():
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(chart)
        lines.append("```")
        lines.append("")
    if result.findings:
        lines.append("## Trend checks")
        lines.append("")
        for trend, holds in result.findings.items():
            lines.append(f"- [{'x' if holds else ' '}] {trend}")
        lines.append("")
    for note in result.notes:
        lines.append(f"> {note}")
        lines.append("")
    (base / "report.md").write_text("\n".join(lines), encoding="utf-8")
    return base


def write_index(results: list[ExperimentResult], directory: str | os.PathLike) -> Path:
    """Write the top-level index summarizing all experiments."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    lines = ["# Experiment results", ""]
    for result in results:
        status = "all trends hold" if result.all_trends_hold else "SOME TRENDS FAILED"
        held = sum(result.findings.values())
        lines.append(
            f"- [`{result.experiment_id}`]({slugify(result.experiment_id)}/report.md)"
            f" — {result.title} — {held}/{len(result.findings)} checks, {status}"
        )
    lines.append("")
    path = base / "README.md"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


class ReportWriter:
    """Accumulate experiment results and flush a results directory."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self._results: list[ExperimentResult] = []

    def add(self, result: ExperimentResult) -> None:
        if any(r.experiment_id == result.experiment_id for r in self._results):
            raise ReproError(
                f"experiment {result.experiment_id!r} already added to this report"
            )
        self._results.append(result)
        write_report(result, self.directory)

    def finalize(self) -> Path:
        """Write the index; returns its path."""
        if not self._results:
            raise ReproError("no experiment results to report")
        return write_index(self._results, self.directory)

    @property
    def results(self) -> tuple[ExperimentResult, ...]:
        return tuple(self._results)
