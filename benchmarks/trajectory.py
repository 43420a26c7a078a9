"""Perf trajectory: every checked-in ``BENCH_*.json`` in one table.

Each perf-focused PR in this repo froze its headline numbers into a
``benchmarks/BENCH_<name>.json`` artifact (and CI gates re-runs against
them via ``compare_bench.py``).  Individually they answer "did *this*
optimization hold?"; this script collates them into a single trajectory
table so the cumulative story — what got faster, by how much, measured
on what — is readable in one place.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py             # aligned table
    PYTHONPATH=src python benchmarks/trajectory.py --markdown  # README-ready
    PYTHONPATH=src python benchmarks/trajectory.py --json      # machine form

The headline map below is declarative: a new benchmark artifact only
needs one entry naming its headline metrics.  Missing files are skipped
(with a note), so the script works on any checkout depth.
"""

import argparse
import json
import sys
from pathlib import Path

#: One entry per benchmark artifact, in merge (PR) order.  Each headline
#: is ``(label, key, format)``; keys missing from the payload are
#: skipped so schema growth never breaks the collation.
TRAJECTORY = [
    {
        "file": "BENCH_chain.json",
        "subject": "checkpoint/fork prefix-sharing chains",
        "headlines": [
            ("independent", "independent_serial_cells_per_second", "{:,.1f} cells/s"),
            ("chained", "chained_serial_cells_per_second", "{:,.1f} cells/s"),
            ("speedup", "serial_speedup", "{:.2f}x"),
        ],
    },
    {
        "file": "BENCH_serve.json",
        "subject": "live what-if sessions",
        "headlines": [
            ("ingest", "ingest_jobs_per_second", "{:,.0f} jobs/s"),
            ("what-if", "what_if_queries_per_second", "{:,.0f} queries/s"),
            ("p99", "what_if_p99_ms", "{:.1f} ms"),
        ],
    },
    {
        "file": "BENCH_hotloop.json",
        "subject": "table-native feed + event-loop overhaul",
        "headlines": [
            ("row feed", "row_serial_cells_per_second", "{:,.1f} cells/s"),
            ("table feed", "table_serial_cells_per_second", "{:,.1f} cells/s"),
            ("speedup vs sweep baseline", "speedup_vs_sweep_baseline", "{:.2f}x"),
        ],
    },
    {
        "file": "BENCH_dist.json",
        "subject": "work-stealing queue, multi-worker drain",
        "headlines": [
            ("1-worker drain", "dist_1worker_cells_per_second", "{:,.1f} cells/s"),
            ("2-worker drain", "dist_2worker_cells_per_second", "{:,.1f} cells/s"),
            ("scaling", "scaling_speedup", "{:.2f}x"),
            ("retried cells after kill", "fault_retried_cells", "{:d}"),
        ],
    },
]


def collect(bench_dir: Path) -> list[dict]:
    """One record per present artifact: subject + formatted headlines."""
    records = []
    for entry in TRAJECTORY:
        path = bench_dir / entry["file"]
        if not path.is_file():
            records.append(
                {"bench": entry["file"], "subject": entry["subject"], "missing": True}
            )
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        headlines = [
            (label, fmt.format(payload[key]))
            for label, key, fmt in entry["headlines"]
            # None marks a skipped leg (e.g. BENCH_dist's scaling leg
            # on a 1-CPU host) — absent and skipped render the same.
            if payload.get(key) is not None
        ]
        records.append(
            {
                "bench": entry["file"],
                "subject": entry["subject"],
                "missing": False,
                "headlines": headlines,
            }
        )
    return records


def render(records: list[dict], *, markdown: bool = False) -> str:
    """The trajectory as an aligned text table (or a markdown one)."""
    rows = [("benchmark", "subject", "headline numbers")]
    for record in records:
        name = record["bench"].removeprefix("BENCH_").removesuffix(".json")
        if record.get("missing"):
            rows.append((name, record["subject"], "(artifact not present)"))
            continue
        numbers = ", ".join(f"{label} {value}" for label, value in record["headlines"])
        rows.append((name, record["subject"], numbers or "(no headline keys)"))
    if markdown:
        lines = [
            "| " + " | ".join(rows[0]) + " |",
            "|" + "|".join("---" for _ in rows[0]) + "|",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in rows[1:]]
        return "\n".join(lines)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--markdown", action="store_true", help="emit a markdown table"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the raw collation as JSON"
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path(__file__).parent,
        help="directory holding the BENCH_*.json artifacts",
    )
    args = parser.parse_args(argv)
    records = collect(args.bench_dir)
    if args.json:
        json.dump(records, sys.stdout, indent=2)
        print()
    else:
        print(render(records, markdown=args.markdown))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
