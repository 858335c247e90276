"""One repeat of one workload, in a fresh process (so no repeat inherits
another's heap).  Started by ``run.py``; prints one JSON line.

    python3 perfbench/repeat.py '{"workload": "sim-history", "seed": 1, ...}'
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from checks import CheckFailed  # noqa: E402
from workloads import sim_history, tcp_capacity, tcp_open, tcp_strict_crash  # noqa: E402

from repro.common import InvariantViolation  # noqa: E402


def run(spec: dict) -> dict:
    workload, seed = spec["workload"], spec["seed"]
    traced, oracle = spec["traced"], spec["oracle"]
    if workload == "sim-history":
        return sim_history(seed, traced, oracle)
    if workload == "tcp-open" and spec.get("phase") == "capacity":
        return asyncio.run(tcp_capacity(seed, spec["seconds"], oracle))
    if workload == "tcp-open":
        return asyncio.run(tcp_open(seed, spec["seconds"], traced, oracle))
    if workload == "tcp-strict-crash":
        return asyncio.run(tcp_strict_crash(seed, spec["seconds"], traced, oracle))
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    spec = json.loads(sys.argv[1])
    try:
        result = run(spec)
        result["correct"] = True
    except (CheckFailed, InvariantViolation) as exc:
        result = {"correct": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
