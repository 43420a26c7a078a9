"""Smoke test for the e2e benchmark (run explicitly; not part of tier-1):

    python -m pytest benchmarks/e2e/test_e2e_smoke.py

``pyproject.toml``'s ``testpaths`` keeps it out of the default run: it
spawns about sixty child processes and takes a bit under a minute.  It
checks the benchmark against its own declaration in BENCHMARK.json, not
the simulator's speed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Oracles and process-global toggles ROADMAP item 2 wants to delete; the
#: benchmark must keep working when they go, so it may not name them.
FORBIDDEN = (
    "profile_ref",
    "configure_reference_kernel",
    "configure_sequential_claims",
    "reference_summarize",
    "make_workload_rows",
    "exec.configure",
    "run_cell(",
    "import run_cell",
)


def quick_run(tmp_path: Path, tag: str, *extra: str) -> dict:
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--quick", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, done.stdout[-4000:]
    return {record["workload"]: record for record in json.loads(out.read_text())["runs"]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        "timed": quick_run(tmp, "timed"),
        "again": quick_run(tmp, "again"),
        "traced": quick_run(tmp, "traced", "--trace", "1"),
    }


def test_declaration_is_well_formed():
    assert SPEC["command"][0] == "python3" and SPEC["command"][1].startswith(SPEC["paths"][0])
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(SPEC["workloads"]) == 6 and len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_declared_name_is_emitted(runs):
    declared = {w["name"] for w in SPEC["workloads"]}
    assert set(runs["timed"]) == declared == set(runs["traced"])
    for mode, key in (("timed", "end_to_end"), ("traced", "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload, record in runs[mode].items():
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            assert got == want, (workload, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())
    for record in runs["timed"].values():
        assert all(m["value"] > 0 for m in record["metrics"].values()), record["workload"]


def test_digests_repeat_and_match_the_traced_run(runs):
    for workload, record in runs["timed"].items():
        assert record["result_digest"] == runs["again"][workload]["result_digest"], workload
        assert record["result_digest"] == runs["traced"][workload]["result_digest"], workload
    golden = json.loads((HERE / "golden.json").read_text())["quick"]
    assert {w: r["result_digest"] for w, r in runs["timed"].items()} == {
        w: entry["digest"] for w, entry in golden.items()
    }


def test_workloads_separate_the_layers(runs):
    def value(workload: str, metric: str) -> float:
        return runs["traced"][workload]["metrics"][metric]["value"]

    assert value("deep_queue_repack", "exec.chains.chained_cells") > 0
    assert value("paper_grid", "exec.chains.chained_cells") == 0
    for workload in runs["traced"]:
        here = workload == "extension_engines"
        assert (value(workload, "grid.engine.calls") > 0) == here, workload
        assert (value(workload, "preempt.engine.calls") > 0) == here, workload
    assert value("swf_replay", "sched.profile.share") <= 0.05
    assert value("cached_sweep", "exec.queue.claims") > 0
    assert value("serve_whatif", "serve.session.calls") > 0


def test_no_oracle_or_global_toggle_is_named():
    for path in sorted(HERE.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        for name in FORBIDDEN:
            assert name not in text, f"{path.name} names {name}"
