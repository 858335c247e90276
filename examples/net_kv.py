"""A real networked key-value service on the asyncio runtime.

Run with::

    PYTHONPATH=src python examples/net_kv.py

Everything else in ``examples/`` drives the *simulated* cluster under
virtual time.  This demo runs the same ESDS algorithm on
:class:`repro.net.runtime.NetCluster`: one asyncio task per replica, TCP
sockets on the loopback interface, and every message — request, response,
gossip, pull, transfer — encoded through the compact binary wire codec
(:mod:`repro.net.codec`).

The script starts a four-replica keyed counter service with delta gossip,
performs a small session (writes, read-your-writes via ``prev``, a strict
read), crashes and recovers a replica mid-session, then pushes a concurrent
zipfian load through it with the load driver and prints throughput, latency
percentiles and the *actual bytes per message kind* that crossed the wire.
"""

import asyncio

from repro.config import ReplicaConfig
from repro.datatypes.counter import CounterType
from repro.net.driver import LoadSpec, run_load
from repro.net.runtime import NetCluster, NetParams
from repro.service.keyed import KeyedStore


async def session_demo(cluster: NetCluster) -> None:
    print("=== keyed session over TCP (read-your-writes via prev) ===")
    visits = {}
    for user in ("ada", "grace", "ada", "ada", "grace"):
        operation = cluster.make_operation(
            "frontend-1",
            KeyedStore.at(user, CounterType.increment()),
            prev=[visits[user]] if user in visits else [],
        )
        count = await cluster.execute(operation)
        visits[user] = operation.id
        print(f"  visit from {user!r:>8}: count now {count}")

    # A strict read blocks until its position in the eventual total order
    # is stable — the value is consistent with the final serialization.
    total = await cluster.submit(
        "frontend-2",
        KeyedStore.at("ada", CounterType.read()),
        prev=[visits["ada"]],
        strict=True,
    )
    print(f"  strict read of 'ada' from another front end: {total}\n")


async def failure_demo(cluster: NetCluster) -> None:
    print("=== crash and recovery with live traffic ===")
    await cluster.crash_replica("r1", volatile_memory=True)
    print("  r1 crashed (volatile memory lost)")
    for _ in range(3):
        await cluster.submit("frontend-1", KeyedStore.at("edsger", CounterType.increment()))
    await cluster.recover_replica("r1")
    print("  r1 recovered from stable storage (fresh TCP port)")
    await cluster.quiesce(timeout=20.0)
    value = await cluster.submit("frontend-2", KeyedStore.at("edsger", CounterType.read()))
    print(f"  read of 'edsger' after recovery: {value}\n")


async def load_demo(cluster: NetCluster) -> None:
    print("=== concurrent zipfian load (10 clients, closed loop) ===")
    spec = LoadSpec(operations_per_client=50, mode="closed", num_keys=32, seed=3)
    report = await run_load(cluster, spec)
    print("\n".join("  " + line for line in report.format().splitlines()))
    await cluster.quiesce(timeout=20.0)
    print("  converged: every replica replays the same order\n")


async def main() -> None:
    params = NetParams(
        gossip_period=0.02, replica=ReplicaConfig(delta_gossip=True, fast_core=True)
    )
    cluster = NetCluster(
        KeyedStore(CounterType()),
        num_replicas=4,
        client_ids=tuple(["frontend-1", "frontend-2"] + [f"c{i}" for i in range(8)]),
        params=params,
        transport="tcp",
    )
    async with cluster:
        await session_demo(cluster)
        await failure_demo(cluster)
        await load_demo(cluster)


if __name__ == "__main__":
    asyncio.run(main())
