#!/usr/bin/env python3
"""Profile the net-runtime driver hot path and dump the cProfile top-N.

Runs the E13c-style closed-loop TCP load under ``cProfile`` on the
production (fast) replica core and prints the top functions by
cumulative time — the socket-path counterpart of
``profile_hotpath.py``'s simulator profile, so every CI run also leaves
a browsable record of where the *network* wall clock went (codec encode/
decode, frame handling, splice passes) long before a regression trips a
timing band.

Usage::

    PYTHONPATH=src python benchmarks/profile_net_driver.py [--ops N] [--top N]
    PYTHONPATH=src python benchmarks/profile_net_driver.py --out profile.txt
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import gc
import io
import pstats
import sys

from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.net.driver import LoadSpec, run_load
from repro.net.runtime import NetCluster, NetParams


async def _drive(ops_per_client: int):
    params = NetParams(gossip_period=0.5, replica=ReplicaConfig(
        delta_gossip=True, incremental_replay=True, fast_core=True,
    ))
    cluster = NetCluster(CounterType(), num_replicas=4,
                         client_ids=tuple(f"c{i}" for i in range(16)),
                         params=params, transport="tcp")
    async with cluster:
        report = await run_load(cluster, LoadSpec(operations_per_client=ops_per_client,
                                                  seed=0))
        await cluster.quiesce(timeout=60.0)
    return report


def profile_run(ops_per_client: int, top: int) -> str:
    gc.collect()  # keep earlier garbage out of this profile
    profiler = cProfile.Profile()
    profiler.enable()
    report = asyncio.run(_drive(ops_per_client))
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    header = (
        f"=== fast core, 16 clients x {ops_per_client} ops over TCP loopback "
        f"({report.ops_per_sec:,.0f} ops/s), top {top} by cumulative time ===\n"
    )
    return header + buffer.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=100,
                        help="operations per client in the profiled load")
    parser.add_argument("--top", type=int, default=30,
                        help="number of entries to print")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args()
    report = profile_run(args.ops, args.top)
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
