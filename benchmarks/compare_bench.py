"""Diff two BENCH_*.json snapshots and fail on throughput regression.

Usage::

    python benchmarks/compare_bench.py OLD.json NEW.json [--threshold 0.30]

Walks both payloads for numeric leaves whose key ends in ``_per_second``
(the schema-agnostic throughput convention shared by every BENCH
snapshot: ``events_per_second``, ``cells_per_second``, the store bench's
write/resolve rates), prints a side-by-side table, and exits nonzero if
any metric present in both files dropped by more than ``threshold``
(default 30% — wide enough to absorb host noise, tight enough to catch a
lost optimization).  Metrics present in only one
file are reported but never fail the comparison, so adding or removing a
bench case does not break the gate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.30


def throughput_leaves(payload, prefix=""):
    """Flatten to {dotted.path: value} for ``*_per_second`` keys.

    Null and NaN leaves (a skipped parallel leg writes ``None``) are
    treated as absent rather than crashing the comparison.
    """
    leaves = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                leaves.update(throughput_leaves(value, path))
            elif (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and not math.isnan(value)
                and str(key).endswith("_per_second")
            ):
                leaves[path] = float(value)
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            leaves.update(throughput_leaves(value, f"{prefix}[{index}]"))
    return leaves


def schema_warnings(old: dict, new: dict) -> list[str]:
    """Non-fatal drift between two payloads' shapes.

    Schema-version bumps and added/removed top-level fields are expected
    when a bench evolves; the gate should keep comparing whatever
    throughput keys both files still share, and merely say what drifted.
    """
    warnings = []
    old_schema, new_schema = old.get("schema"), new.get("schema")
    if old_schema != new_schema:
        warnings.append(f"schema version differs: {old_schema!r} -> {new_schema!r}")
    removed = sorted(set(old) - set(new))
    added = sorted(set(new) - set(old))
    if removed:
        warnings.append(f"fields only in baseline: {', '.join(removed)}")
    if added:
        warnings.append(f"fields only in candidate: {', '.join(added)}")
    return warnings


def _extract_host(payload: dict) -> dict:
    """Host provenance from either BENCH schema.

    Hand-rolled BENCH_*.json writers stamp ``host`` at the top level;
    pytest-benchmark exports carry it per-benchmark under
    ``benchmarks[*].extra_info.host`` (stamped by
    ``benchmarks/bench_experiments.py`` et al.) — all rows of one export share
    one host, so the first is representative.
    """
    host = payload.get("host")
    if isinstance(host, dict) and host:
        return host
    for row in payload.get("benchmarks") or []:
        if isinstance(row, dict):
            extra = row.get("extra_info")
            if isinstance(extra, dict) and isinstance(extra.get("host"), dict):
                return extra["host"]
    return {}


def host_warnings(old: dict, new: dict) -> list[str]:
    """Non-fatal host-shape drift between two payloads.

    Every bench writer stamps ``host`` provenance (cpu_count, platform,
    machine, python — see :mod:`repro.hostinfo`).  Numbers measured on
    differently shaped hosts are legitimately different; the gate still
    runs (its threshold absorbs honest variance), but the comparison
    must say the hosts differ so nobody chases a phantom regression.
    """
    old_host = _extract_host(old)
    new_host = _extract_host(new)
    if not isinstance(old_host, dict) or not isinstance(new_host, dict):
        return []
    if not old_host and not new_host:
        return []
    if bool(old_host) != bool(new_host):
        missing = "baseline" if not old_host else "candidate"
        return [f"host provenance missing from {missing} (pre-provenance snapshot?)"]
    warnings = []
    for key in sorted(set(old_host) | set(new_host)):
        before, after = old_host.get(key), new_host.get(key)
        if before != after:
            warnings.append(
                f"host {key} differs: {before!r} -> {after!r} "
                "(numbers are not directly comparable)"
            )
    return warnings


def compare(old: dict, new: dict, threshold: float) -> list[str]:
    """Return regression descriptions (empty = gate passes); prints the table."""
    old_leaves = throughput_leaves(old)
    new_leaves = throughput_leaves(new)
    regressions = []
    width = max((len(k) for k in old_leaves | new_leaves), default=10)
    for path in sorted(old_leaves | new_leaves):
        before = old_leaves.get(path)
        after = new_leaves.get(path)
        if before is None:
            print(f"{path:{width}s}  (new metric)        -> {after:>12.1f}")
            continue
        if after is None:
            print(f"{path:{width}s}  {before:>12.1f} -> (removed)")
            continue
        change = (after - before) / before if before else 0.0
        flag = ""
        if after < before * (1.0 - threshold):
            flag = "  REGRESSION"
            regressions.append(
                f"{path}: {before:.1f} -> {after:.1f} /s ({change:+.1%})"
            )
        print(f"{path:{width}s}  {before:>12.1f} -> {after:>12.1f} ({change:+.1%}){flag}")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="baseline BENCH_*.json")
    parser.add_argument("new", type=Path, help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional events/s drop that fails the gate (default 0.30)",
    )
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    for warning in schema_warnings(old, new):
        print(f"warning: {warning}", file=sys.stderr)
    for warning in host_warnings(old, new):
        print(f"warning: {warning}", file=sys.stderr)
    regressions = compare(old, new, args.threshold)
    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed more than "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
