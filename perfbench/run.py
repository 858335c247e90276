"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload sim-history --seed 1 --seconds 32 --trace 0

Workloads: ``sim-history``, ``tcp-open``, ``tcp-strict-crash`` (see
``workloads.py`` and ``README.md``).  With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric; with
``--trace 1`` it carries every per-layer metric, from a traced pass next to
an untraced one.  Each repeat runs in a fresh process (``repeat.py``); the
outputs of every repeat are checked, and any failed check makes the run
print ``"correct": false`` and exit non-zero.  Run from the repository
root; the program under test is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

from benchstats import TooFewSamples, median, percentile
from tracing import CORE_METHODS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (``--trace 0``), every workload.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "cpu_ms_per_op": "ms",
    "requests_per_op": "req/op",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), every workload; 0 where a workload
#: does not exercise the layer.
PER_LAYER: Dict[str, str] = {
    # Client-visible figures kept out of the end-to-end set (see README.md).
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "max_rate_ops_s": "ops/s",
    "strict_p50_ms": "ms",
    "strict_p95_ms": "ms",
    "outage_s": "s",
    "catchup_s": "s",
    "error_rate": "fraction",
    "samples.nonstrict": "count",
    "samples.strict": "count",
    # repro.net.codec
    "codec.encode.busy_s": "s",
    "codec.encode.calls": "count",
    "codec.decode.busy_s": "s",
    "codec.decode.calls": "count",
    "codec.bytes_per_op": "B",
    "codec.gossip_bytes_per_msg": "B",
    # repro.algorithm replica core
    **{f"core.{m}.busy_s": "s" for m in CORE_METHODS},
    **{f"core.{m}.calls": "count" for m in CORE_METHODS},
    "core.gossip_msgs_per_batch": "msgs",
    "core.value_applications_per_op": "count",
    "core.gossip_received_per_op": "count",
    "core.compacted_ops": "count",
    "core.tracked_ops_peak": "count",
    "core.do_it": "count",
    # repro.algorithm.frontend
    "frontend.busy_s": "s",
    # repro.net.runtime
    "runtime.msgs_per_frame": "msgs",
    "runtime.gossip_msgs": "count",
    "runtime.gossip_skipped": "count",
    "runtime.pull_msgs": "count",
    "runtime.transfer_msgs": "count",
    "runtime.requests_per_op": "req/op",
    "runtime.other_s": "s",
    # asyncio event loop and the load generator
    "loop.lag_p50_ms": "ms",
    "loop.lag_p99_ms": "ms",
    "loop.busy_frac": "fraction",
    "loadgen.late_p99_ms": "ms",
    # garbage collector
    "gc.pauses": "count",
    "gc.pause_total_s": "s",
    "gc.pause_max_ms": "ms",
    # repro.sim
    "sim.events": "count",
    "sim.messages": "count",
    "sim.gossip_payload": "B",
    "sim.other_s": "s",
    # crash recovery
    "recovery.acked_lost_ops": "count",
    # the process and the host it runs on
    "proc.ready_s": "s",
    "host.steal_frac": "fraction",
    # the traced pass itself
    "trace.overhead_frac": "fraction",
    "trace.unexplained_frac": "fraction",
}

WORKLOADS = ("sim-history", "tcp-open", "tcp-strict-crash")
#: TCP runs are split into this many sub-runs, each in a fresh process with
#: a fresh cluster and its own seed derived from ``--seed``; latency
#: percentiles are taken over the pooled operations.
SUBRUNS = 4
#: ``tcp-open --trace 1``: the capacity search's share of ``--seconds``.
CAPACITY_SHARE = 0.5
#: Every run must end within this many seconds, children included.
RUN_LIMIT_S = 170.0
MIN_SIM_REPEATS = 3


class RunFailed(RuntimeError):
    """A repeat crashed or timed out (not a correctness verdict)."""


class Incorrect(AssertionError):
    """A check on the program's outputs failed."""


class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.monotonic()
        self.repeats: List[Dict[str, Any]] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def repeat(self, **spec: Any) -> Dict[str, Any]:
        spec = {"seed": self.args.seed, "seconds": self.args.seconds, **spec}
        spec.setdefault("workload", self.args.workload)
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "repeat.py"), json.dumps(spec)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"repeat {spec} timed out") from exc
        if done.returncode != 0:
            raise RunFailed(f"repeat {spec} failed:\n{done.stderr}")
        result = json.loads(done.stdout.splitlines()[-1])
        self.repeats.append(result)
        if not result["correct"]:
            raise Incorrect(result["error"])
        return result


def _sim_history(runner: Runner, trace: bool) -> Dict[str, Any]:
    seconds = runner.args.seconds
    untraced: List[dict] = []
    traced: List[dict] = []
    # Traced runs alternate untraced and traced repeats, at least two pairs.
    minimum = 2 if trace else MIN_SIM_REPEATS
    while len(untraced) < minimum or runner.elapsed() < seconds:
        untraced.append(runner.repeat(traced=False, oracle=not untraced))
        if trace:
            traced.append(runner.repeat(traced=True, oracle=False))
    first = untraced[0]
    for other in untraced[1:] + traced:
        # Same seed, same history: the counts and simulated latencies repeat.
        if other["counts"] != first["counts"] or other["latency"] != first["latency"]:
            raise Incorrect("sim-history did not repeat exactly under one seed")
    counts, latency = first["counts"], first["latency"]
    out: Dict[str, Any] = {
        "attempted": sum(r["counts"]["ops"] for r in untraced + traced),
        "failed": 0,
        "samples": {"nonstrict": latency["nonstrict_n"], "strict": latency["strict_n"]},
        "notes": [
            f"counts {json.dumps(counts)}",
            "throughput per repeat, raw / at the reference speed (ops/s): "
            + ", ".join(
                f"{counts['ops'] / r['wall_s']:.1f} / {counts['ops'] / r['reference_wall_s']:.1f}"
                for r in untraced
            ),
        ],
    }
    if not trace:
        out["metrics"] = {
            "setup_s": median([s for r in untraced for s in r["setup_s"]]),
            "throughput_ops_s": median([counts["ops"] / r["reference_wall_s"] for r in untraced]),
            # The simulator never waits: its wall time is all processor time.
            "cpu_ms_per_op": median(
                [1e3 * r["reference_wall_s"] / counts["ops"] for r in untraced]
            ),
            "requests_per_op": counts["requests"] / counts["ops"],
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        return out
    layers = {
        name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]
    }
    layers.update(
        {
            "latency_p50_ms": latency["p50_ms"],
            "latency_p99_ms": latency["p99_ms"],
            "strict_p50_ms": latency["strict_p50_ms"],
            "strict_p95_ms": latency["strict_p95_ms"],
            "trace.overhead_frac": median([r["reference_wall_s"] for r in traced])
            / median([r["reference_wall_s"] for r in untraced])
            - 1,
        }
    )
    out["metrics"] = layers
    return out


def _pooled(runs: List[dict], kind: str) -> List[float]:
    return [x for r in runs for x in r["latency_ms"][kind]]


def _tcp(runner: Runner, trace: bool) -> Dict[str, Any]:
    args = runner.args
    length = args.seconds / SUBRUNS
    seeds = [args.seed * SUBRUNS + i for i in range(SUBRUNS)]
    crash = args.workload == "tcp-strict-crash"
    if not trace or crash:
        bases = [
            runner.repeat(seed=s, seconds=length, traced=False, oracle=i == 0)
            for i, s in enumerate(seeds)
        ]
    else:
        found = runner.repeat(
            seed=seeds[0],
            seconds=args.seconds * CAPACITY_SHARE,
            phase="capacity",
            traced=False,
            oracle=True,
        )
        bases = [runner.repeat(seed=seeds[0], seconds=length, traced=False, oracle=False)]
    nonstrict, strict = _pooled(bases, "nonstrict"), _pooled(bases, "strict")
    out: Dict[str, Any] = {
        "attempted": sum(r["attempted"] for r in runner.repeats),
        "failed": sum(r["failed"] for r in runner.repeats),
        "samples": {"nonstrict": len(nonstrict), "strict": len(strict)},
    }
    if not trace:
        out["metrics"] = {
            "setup_s": median([s for r in bases for s in r["setup_s"]]),
            "throughput_ops_s": median([r["throughput_ops_s"] for r in bases]),
            "cpu_ms_per_op": median([1e3 * r["cpu_per_op_s"] for r in bases]),
            "requests_per_op": median([r["requests_per_op"] for r in bases]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in bases]),
        }
        return out
    traced = runner.repeat(seed=seeds[0], seconds=length, traced=True, oracle=False)
    out["attempted"] += traced["attempted"]
    out["failed"] += traced["failed"]
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["cpu_per_op_s"] / bases[0]["cpu_per_op_s"] - 1
    layers["latency_p50_ms"] = percentile(nonstrict, 0.50)
    layers["latency_p99_ms"] = percentile(nonstrict, 0.99)
    if crash:
        layers.update(
            {
                "strict_p50_ms": percentile(strict, 0.50),
                "strict_p95_ms": percentile(strict, 0.95),
                "outage_s": median([r["outage_s"] for r in bases]),
                "catchup_s": median([r["catchup_s"] for r in bases]),
            }
        )
    else:
        layers["max_rate_ops_s"] = found["max_rate_ops_s"]
    out["metrics"] = layers
    return out


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program under test at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from benchconfig import describe, production_config

    runner = Runner(args)
    trace = bool(args.trace)
    try:
        if args.workload == "sim-history":
            out = _sim_history(runner, trace)
        else:
            out = _tcp(runner, trace)
    except (RunFailed, TooFewSamples) as exc:
        # TooFewSamples: --seconds is too short for the reported percentiles.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Incorrect as exc:
        print(f"CHECK FAILED: {exc}")
        attempted = max(1, sum(r.get("attempted", r.get("counts", {}).get("ops", 0))
                               for r in runner.repeats))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1

    config = describe(production_config())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"config {json.dumps(config['effective'])}")
    if config["dropped"]:
        print(f"config fields not declared by this ReplicaConfig: {config['dropped']}")
    print(
        f"repeats {len(runner.repeats)}  host steal up to"
        f" {max(r['steal_frac'] for r in runner.repeats):.3f}"
        f"  wall {runner.elapsed():.1f} s"
    )
    print(f"samples {json.dumps(out['samples'])}")
    builds = [r for r in runner.repeats if "setup_s" in r]
    if builds:
        raw = median([s for r in builds for s in r["setup_raw_s"]])
        scaled = median([s for r in builds for s in r["setup_s"]])
        print(f"setup per build (median), raw / at the reference speed: {raw:.6f} / {scaled:.6f} s")
    for line in out.get("notes", []):
        print(line)
    units = PER_LAYER if trace else END_TO_END
    metrics = dict(out["metrics"])
    metrics.setdefault("error_rate", out["failed"] / out["attempted"])
    metrics["samples.nonstrict"] = out["samples"]["nonstrict"]
    metrics["samples.strict"] = out["samples"]["strict"]
    metrics = {name: float(metrics.get(name, 0.0)) for name in units}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
