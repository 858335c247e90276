#!/usr/bin/env python3
"""Profile the replay/ordering hot path and dump the cProfile top-N.

Runs the E10-style compacted workload (the PR-CI slice of the long-run
configuration) under ``cProfile`` on both replica cores and prints the top
functions by cumulative time, so every CI run leaves a browsable record of
where the wall clock went — regressions show up as a new name at the top of
the table long before they trip a timing band.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py [--ops N] [--top N]
    PYTHONPATH=src python benchmarks/profile_hotpath.py --out profile.txt
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys

from repro.algorithm.checkpoint import CompactionPolicy
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

CLIENTS = [f"c{i}" for i in range(4)]


def profile_run(total_ops: int, fast: bool, top: int) -> str:
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            delta_gossip=True,
            incremental_replay=True,
            batch_gossip=True,
            fast_core=fast,
            compaction=CompactionPolicy(min_batch=32, value_retention=256),
            compaction_interval=16.0,
        ),
    )
    cluster = SimulatedCluster(CounterType(), 3, CLIENTS, params=params, seed=1)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=0.25, strict_fraction=0.05)
    profiler = cProfile.Profile()
    profiler.enable()
    run_workload(cluster, spec, seed=2)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    core = "fast" if fast else "base"
    header = f"=== {core} core, {total_ops} ops, top {top} by cumulative time ===\n"
    return header + buffer.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=4000,
                        help="total operations in the profiled workload")
    parser.add_argument("--top", type=int, default=30,
                        help="number of entries to print per core")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args()
    report = "\n".join(
        profile_run(args.ops, fast, args.top) for fast in (False, True)
    )
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
