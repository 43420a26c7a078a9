"""The perf-trajectory collator must survive any artifact population."""

import json
from pathlib import Path

from benchmarks.trajectory import TRAJECTORY, collect, render

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def test_collects_every_checked_in_artifact():
    records = collect(BENCH_DIR)
    assert len(records) == len(TRAJECTORY)
    present = [r for r in records if not r.get("missing")]
    assert present, "no BENCH_*.json artifacts found"
    for record in present:
        assert record["headlines"], f"{record['bench']} produced no headlines"


def test_missing_artifacts_are_noted_not_fatal(tmp_path):
    records = collect(tmp_path)
    assert all(r["missing"] for r in records)
    text = render(records)
    assert "(artifact not present)" in text


def test_render_markdown_and_table(tmp_path):
    (tmp_path / "BENCH_hotloop.json").write_text(
        json.dumps(
            {
                "row_serial_cells_per_second": 60.0,
                "table_serial_cells_per_second": 63.0,
                "speedup_vs_sweep_baseline": 1.5,
            }
        )
    )
    records = collect(tmp_path)
    table = render(records)
    markdown = render(records, markdown=True)
    assert "1.50x" in table
    assert markdown.splitlines()[1].startswith("|---")
    assert "| hotloop |" in markdown


def test_unknown_keys_are_skipped_quietly(tmp_path):
    (tmp_path / "BENCH_chain.json").write_text(json.dumps({"schema": 99}))
    records = collect(tmp_path)
    record = next(r for r in records if r["bench"] == "BENCH_chain.json")
    assert record["headlines"] == []
    assert "(no headline keys)" in render(records)
