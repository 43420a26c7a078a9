#!/usr/bin/env python
"""Analysis deep dive: everything beyond the averages.

The paper's methodological point is that overall averages hide structure.
This example runs one schedule and inspects it with the library's
analysis stack: trace characterization, slowdown per job category,
worst-case turnaround per category against the no-backfill reference,
and a written report directory.

Run:  python examples/analysis_deep_dive.py [output_dir]
"""

import sys
import tempfile

from repro import (
    CTCGenerator,
    EasyScheduler,
    FCFSScheduler,
    apply_estimates,
    ClampedEstimate,
    UserEstimateModel,
    scale_load,
    simulate,
)
from repro.analysis import bar_chart
from repro.workload.stats import characterization_table


def main() -> None:
    workload = scale_load(CTCGenerator().generate(2000, seed=5), 0.75)
    workload = apply_estimates(
        workload,
        ClampedEstimate(UserEstimateModel(well_fraction=0.5, max_factor=16.0), 64_800.0),
        seed=2,
    )

    print(characterization_table(workload).render(title="1. The workload"))

    result = simulate(workload, EasyScheduler())
    overall = result.metrics.overall
    print(f"\n2. The run: EASY-FCFS, mean bounded slowdown "
          f"{overall.mean_bounded_slowdown:.1f}, utilization "
          f"{result.metrics.utilization:.3f}")

    print("\n3. Where the slowdown lives (short/long x narrow/wide):")
    by_category = bar_chart(
        {
            category.value: summary.mean_bounded_slowdown
            for category, summary in result.metrics.by_category.items()
        },
        title="mean bounded slowdown",
    )
    print(by_category)

    print("\n4. Who pays for the average (worst turnaround, hours, "
          "vs the no-overtaking baseline):")
    reference = simulate(workload, FCFSScheduler()).metrics.by_category
    for category, summary in result.metrics.by_category.items():
        print(f"   {category.value}: EASY {summary.max_turnaround / 3600:7.1f}"
              f"   no backfill {reference[category].max_turnaround / 3600:7.1f}")

    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro_")
    from repro.analysis.report import write_report
    from repro.experiments.runner import ExperimentResult
    from repro.analysis.table import Table

    summary = Table(["metric", "value"])
    summary.append("mean bounded slowdown", overall.mean_bounded_slowdown)
    summary.append("worst turnaround (h)", overall.max_turnaround / 3600.0)
    summary.append("utilization", result.metrics.utilization)
    artifact = ExperimentResult(
        experiment_id="deep-dive",
        title="EASY-FCFS on a CTC-like workload",
        tables={"summary": summary},
        charts={"slowdown by category": by_category},
        findings={"run completed": True},
    )
    path = write_report(artifact, out_dir)
    print(f"\n5. Report written to {path}/report.md")


if __name__ == "__main__":
    main()
