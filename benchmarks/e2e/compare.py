#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of two A/A sets), B the
candidate.  One row per (workload, end-to-end metric): both medians with
their quartiles, the ratio B/A with its base, and a verdict from the
bounds in BENCHMARK.json:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``improved``   - better by more than the bound;
* ``unchanged``  - within the bound;
* ``unresolved`` - the move exceeds the bound but the run-to-run spread
  (either side's interquartile range over its median) does too and the
  two sets' runs interleave, so the sets cannot tell the move from noise.

Any ``result_digest`` difference is reported first: simulated results
are not a timing metric and must not move at all.  Exit status is
non-zero on ``regressed``, on digest drift, or on a failed operation.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path: str) -> dict[str, list[dict]]:
    """workload -> its timed runs (traced runs carry no bounded metric)."""
    runs: dict[str, list[dict]] = {}
    for record in json.loads(Path(path).read_text())["runs"]:
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    ratio = b2 / a2 if a2 else float("inf")
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if abs(worse) <= bound:
        return "unchanged", ratio
    spread = max((a3 - a1) / a2 if a2 else 0.0, (b3 - b1) / b2 if b2 else 0.0)
    interleave = max(a) >= min(b) and max(b) >= min(a)
    if spread > bound and interleave:
        return "unresolved", ratio
    return ("regressed" if worse > 0 else "improved"), ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, cand = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0

    for workload in base:
        digests_a = {r["result_digest"] for r in base[workload]}
        digests_b = {r["result_digest"] for r in cand.get(workload, [])}
        seeds = {r["seed"] for r in base[workload] + cand.get(workload, [])}
        if len(seeds) == 1 and digests_b and digests_a != digests_b:
            print(f"DIGEST DRIFT {workload}: {sorted(digests_a)} -> {sorted(digests_b)}")
            status = 1
    for side, runs in (("A", base), ("B", cand)):
        for workload, records in runs.items():
            failed = sum(r["failed"] for r in records)
            if failed or not all(r["correct"] for r in records):
                print(f"FAILED OPERATIONS {workload} ({side}): {failed} failed")
                status = 1

    header = f"{'workload':18s} {'metric':12s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'B/A':>7s} {'bound':>6s}  verdict"
    print(header)
    for workload in base:
        if workload not in cand:
            print(f"{workload:18s} missing from B")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a = [r["metrics"][key]["value"] for r in base[workload]]
            b = [r["metrics"][key]["value"] for r in cand[workload]]
            word, ratio = verdict(a, b, metric["bound"], metric["better"])
            if word == "regressed":
                status = 1

            def cell(values: list[float]) -> str:
                q1, q2, q3 = quartiles(values)
                return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"

            print(
                f"{workload:18s} {key:12s} {cell(a):>34s} {cell(b):>34s} {ratio:7.3f} "
                f"{metric['bound']:6.2f}  {word} (base A = {quartiles(a)[1]:.5g} {metric['unit']})"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
