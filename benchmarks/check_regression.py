#!/usr/bin/env python3
"""Benchmark regression gate.

Compares freshly produced ``BENCH_*.json`` files (benchmark artifacts, see
``conftest.emit_bench_json``) against the checked-in tolerance bands in
``benchmarks/baselines/BASELINE_*.json`` and exits non-zero on regression.
Pure stdlib, so CI can run it without installing the package.

Usage::

    python benchmarks/check_regression.py --bench-dir <dir-with-BENCH-json>
    python benchmarks/check_regression.py --bench-dir benchmarks --update

Baseline schema — one file per experiment::

    {
      "experiment": "E11",
      "checks": [
        {"name": "...", "path": "steady_payload_advert.16000", "max": 50},
        {"name": "...", "path": "gossip_payload.4000",
         "baseline": 392198, "tolerance": 0.3, "direction": "upper"}
      ]
    }

``path`` is a dot-separated lookup into the experiment's ``metrics`` object
(JSON object keys are strings; a numeric part indexes a list, and a key
containing dots matches as the last part).  Two check kinds:

* hard bounds — ``max`` and/or ``min``: the metric must stay within them
  regardless of history (used for promises like "peak tracked ops stays
  below the suffix window" or "advert payload is O(clients)");
* baseline bands — ``baseline`` + ``tolerance`` (relative) + ``direction``
  (``"upper"``, ``"lower"`` or ``"both"``): the metric must stay within
  ``baseline * (1 ± tolerance)`` on the guarded side(s).

Intentional baseline bumps: re-run the benchmarks locally, then run this
script with ``--update`` (rewrites the ``baseline`` values in place from
the fresh BENCH files; hard ``max``/``min`` bounds are never auto-bumped —
edit those deliberately) and commit the changed baseline files in the same
PR.  The CI gate then passes because it compares against the new bands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


def lookup(metrics, path):
    """The metric at dot-separated *path*: a part indexes a list by position,
    and a key that itself contains dots (``"0.25"``, ``"commute (Fig. 11)"``)
    matches as the whole remaining path."""
    node, rest = metrics, path
    while True:
        if isinstance(node, dict) and rest in node:
            return node[rest]
        part, _, rest = rest.partition(".")
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return None
        if not rest:
            return node


def evaluate(check, value):
    """Returns a list of failure strings (empty = pass)."""
    failures = []
    name = check.get("name", check["path"])
    if "max" in check and value > check["max"]:
        failures.append(f"{name}: {value} exceeds hard max {check['max']}")
    if "min" in check and value < check["min"]:
        failures.append(f"{name}: {value} below hard min {check['min']}")
    if "baseline" in check:
        baseline = check["baseline"]
        tolerance = check.get("tolerance", 0.25)
        direction = check.get("direction", "upper")
        upper = baseline * (1 + tolerance)
        lower = baseline * (1 - tolerance)
        if direction in ("upper", "both") and value > upper:
            failures.append(
                f"{name}: {value} exceeds baseline {baseline} "
                f"(+{tolerance:.0%} band = {upper:.4g})"
            )
        if direction in ("lower", "both") and value < lower:
            failures.append(
                f"{name}: {value} below baseline {baseline} "
                f"(-{tolerance:.0%} band = {lower:.4g})"
            )
    return failures


def load_metrics(bench_path: Path):
    """The ``metrics`` object of a BENCH artifact, or an error string —
    a corrupt or truncated artifact is a gate failure, not a traceback."""
    try:
        doc = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return None, f"unreadable artifact {bench_path.name}: {error}"
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(metrics, dict):
        return None, f"artifact {bench_path.name} has no 'metrics' object"
    return metrics, None


def run(bench_dir: Path, update: bool) -> int:
    baseline_files = sorted(BASELINE_DIR.glob("BASELINE_*.json"))
    if not baseline_files:
        print(f"no baseline files under {BASELINE_DIR}", file=sys.stderr)
        return 2
    failures, checked = [], 0
    covered = set()
    for baseline_path in baseline_files:
        baseline = json.loads(baseline_path.read_text())
        experiment = baseline["experiment"]
        covered.add(experiment)
        bench_path = bench_dir / f"BENCH_{experiment}.json"
        if not bench_path.exists():
            failures.append(f"{experiment}: missing artifact {bench_path}")
            continue
        metrics, error = load_metrics(bench_path)
        if metrics is None:
            failures.append(f"{experiment}: {error}")
            continue
        dirty = False
        for check in baseline["checks"]:
            value = lookup(metrics, check["path"])
            if value is None:
                failures.append(
                    f"{experiment}: metric path {check['path']!r} absent from {bench_path.name}"
                )
                continue
            if update and "baseline" in check:
                check["baseline"] = value
                dirty = True
                continue
            checked += 1
            verdicts = evaluate(check, value)
            for verdict in verdicts:
                failures.append(f"{experiment}: {verdict}")
            status = "FAIL" if verdicts else "ok"
            print(f"  [{status}] {experiment} {check.get('name', check['path'])}: {value}")
        if update and dirty:
            baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
            print(f"updated {baseline_path}")
    # Every produced artifact must be gated: a BENCH file with no matching
    # baseline means an experiment silently escaped the regression gate
    # (usually a new benchmark landed without its BASELINE_*.json).
    unmatched = sorted(
        path.name
        for path in bench_dir.glob("BENCH_E*.json")
        if path.name[len("BENCH_"):-len(".json")] not in covered
    )
    if unmatched:
        known = ", ".join(sorted(covered))
        for name in unmatched:
            failures.append(
                f"{name}: no matching baseline under {BASELINE_DIR} "
                f"(baselines exist for: {known}) - add a "
                f"BASELINE_{name[len('BENCH_'):-len('.json')]}.json with the "
                "experiment's tolerance bands"
            )
    if update:
        if failures:
            # Missing artifacts / dangling metric paths mean some baselines
            # were NOT refreshed — committing them now would ship stale
            # bands while looking like a successful bump.
            print("\nbaseline update INCOMPLETE:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("baselines rewritten from fresh BENCH files; review and commit them")
        return 0
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf the change is intentional, refresh the bands with\n"
            "  python benchmarks/check_regression.py --bench-dir benchmarks --update\n"
            "and commit the updated benchmarks/baselines/*.json (hard max/min\n"
            "bounds must be edited by hand).",
            file=sys.stderr,
        )
        return 1
    print(f"\nbenchmark regression gate passed ({checked} checks)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", type=Path, default=Path(__file__).resolve().parent,
                        help="directory holding the fresh BENCH_*.json artifacts")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baseline values from the fresh artifacts")
    args = parser.parse_args()
    return run(args.bench_dir, args.update)


if __name__ == "__main__":
    sys.exit(main())
