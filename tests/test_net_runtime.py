"""Tests for the asyncio replica runtime (:mod:`repro.net.runtime`).

Unlike the wire twins (tests/test_net_wire.py), which pin the codec-bearing
simulation twin to the plain simulator under virtual time, these run the
*real* :class:`NetCluster`: one asyncio task per replica, real frames through
the binary codec, gossip on wall-clock timers.  The in-process memory
transport keeps most of them fast and socket-free; the TCP class exercises
the same paths over loopback sockets.

No pytest-asyncio in the toolchain: each test drives its own event loop
through ``asyncio.run``.
"""

import asyncio

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.common import ConfigurationError
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.net.runtime import NetCluster, NetParams
from repro.verification.serializability import check_recorded_trace

FAST = ReplicaConfig(delta_gossip=True, fast_core=True)


def make_cluster(transport="memory", clients=("c0", "c1"), config=FAST, **overrides):
    return NetCluster(
        CounterType(), num_replicas=3, client_ids=clients,
        params=NetParams(gossip_period=0.01, **overrides), transport=transport,
        config=config,
    )


async def converge_and_check(cluster: NetCluster) -> None:
    """Quiesce, then check the global oracles: a single eventual order at
    every live replica and strict responses explained by it."""
    assert await cluster.quiesce(timeout=30.0), "cluster failed to converge"
    witness = cluster.eventual_order()
    assert [op for op in witness] == sorted(witness, key=witness.index)  # sanity: a list of ids
    check_recorded_trace(cluster.data_type, cluster.trace, witness=witness)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetParams(gossip_period=0.0)
        with pytest.raises(ConfigurationError):
            NetParams(send_queue_limit=0)
        with pytest.raises(ConfigurationError):
            NetParams(coalesce_limit=0)
        with pytest.raises(ConfigurationError):
            NetParams(request_retry=0.0)
        with pytest.raises(ConfigurationError):
            NetParams(replica=ReplicaConfig(full_state_interval=0))

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            NetCluster(CounterType(), transport="carrier-pigeon")

    def test_single_replica_rejected(self):
        with pytest.raises(ConfigurationError):
            NetCluster(CounterType(), num_replicas=1)


class TestMemoryTransport:
    def test_smoke_submit_and_converge(self):
        async def run():
            async with make_cluster() as cluster:
                values = []
                for _ in range(5):
                    values.append(await cluster.submit("c0", CounterType.increment()))
                await converge_and_check(cluster)
                # A non-strict read can legally see a stale prefix before
                # convergence (the service is *eventually* serializable);
                # after quiesce every replica's done order holds all five.
                assert await cluster.submit("c1", CounterType.read()) == 5
                return values

        values = asyncio.run(run())
        # Counter increments return the post-application value at the
        # answering replica: positive and never above the total submitted.
        assert all(1 <= v <= 5 for v in values)

    def test_concurrent_clients_coalesce_into_frames(self):
        async def run():
            async with make_cluster(clients=tuple(f"c{i}" for i in range(4))) as cluster:
                await asyncio.gather(*(
                    cluster.submit(cid, CounterType.increment())
                    for cid in cluster.client_ids for _ in range(5)
                ))
                await converge_and_check(cluster)
                assert await cluster.submit("c0", CounterType.read()) == 20
                return cluster.stats

        stats = asyncio.run(run())
        assert stats.frames_sent > 0 and stats.bytes_sent > 0
        assert stats.messages_by_kind["request"] >= 21
        assert stats.messages_by_kind["gossip"] > 0
        # Payload bytes exclude the per-frame overhead bytes_sent includes.
        assert sum(stats.payload_bytes_by_kind.values()) < stats.bytes_sent

    def test_prev_chain_and_strict_read(self):
        async def run():
            async with make_cluster() as cluster:
                first = cluster.make_operation("c0", CounterType.increment())
                await cluster.execute(first)
                second = cluster.make_operation(
                    "c0", CounterType.increment(), prev=[first.id])
                await cluster.execute(second)
                # A strict read behind the chain is answered only once its
                # position in the eventual order is stable: it must see both.
                total = await cluster.submit(
                    "c1", CounterType.read(), prev=[second.id], strict=True)
                await converge_and_check(cluster)
                return total

        assert asyncio.run(run()) == 2

    def test_prev_must_reference_requested_operations(self):
        async def run():
            async with make_cluster() as cluster:
                ghost = cluster.make_operation("c0", CounterType.increment())
                with pytest.raises(ConfigurationError):
                    cluster.make_operation("c1", CounterType.read(), prev=[ghost.id])

        asyncio.run(run())


class TestCrashRecovery:
    def test_volatile_crash_and_recovery_converges(self):
        async def run():
            config = ReplicaConfig(
                delta_gossip=True,
                fast_core=True,
                advert_gossip=True,
                compaction=CompactionPolicy(min_batch=4, value_retention=64),
            )
            async with make_cluster(config=config) as cluster:
                for _ in range(6):
                    await cluster.submit("c0", CounterType.increment())
                await cluster.crash_replica("r1", volatile_memory=True)
                for _ in range(4):
                    await cluster.submit("c1", CounterType.increment())
                await cluster.recover_replica("r1")
                await converge_and_check(cluster)
                assert await cluster.submit("c0", CounterType.read()) == 10
                return cluster

        cluster = asyncio.run(run())
        # The recovered replica holds the same stable knowledge as its peers.
        recovered = cluster.replicas["r1"]
        survivor = cluster.replicas["r0"]
        assert recovered.checkpoint.digest() == survivor.checkpoint.digest() or (
            recovered.checkpoint.count == 0 or survivor.checkpoint.count == 0
        )

    def test_requests_redirect_away_from_crashed_affinity_replica(self):
        async def run():
            async with make_cluster(request_retry=0.1) as cluster:
                # c0's affinity replica is r0; crash it and the retry loop
                # must redirect to a live replica within the timeout.
                await cluster.crash_replica("r0", volatile_memory=True)
                value = await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                await cluster.recover_replica("r0")
                await converge_and_check(cluster)
                return value

        assert asyncio.run(run()) == 1


class TestBackpressure:
    def test_unreachable_peer_makes_gossip_skip_not_block(self):
        async def run():
            async with make_cluster(send_queue_limit=1, reconnect_delay=5.0) as cluster:
                await cluster.submit("c0", CounterType.increment())
                await cluster.crash_replica("r2", volatile_memory=False)
                # r2's server is gone and the re-dial is slow: the peers'
                # queues toward it fill and gossip rounds skip instead of
                # stalling the loop.  Live traffic keeps being answered.
                await asyncio.sleep(0.2)
                value = await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                return cluster.stats, value

        stats, value = asyncio.run(run())
        assert value == 2
        assert stats.gossip_skipped > 0


DROP_COUNTERS = (
    "responses_unrouted",
    "link_dial_lost",
    "link_write_lost",
    "requests_unreachable",
    "requests_write_lost",
)


def drops(stats):
    return {name: getattr(stats, name) for name in DROP_COUNTERS}


async def eventually(condition, timeout=10.0):
    """Poll *condition* until it holds; fail after *timeout* seconds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.01)


class TestDropCounters:
    """Every place the runtime loses a message counts it."""

    def test_loss_free_run_drops_nothing(self):
        async def run():
            async with make_cluster() as cluster:
                await asyncio.gather(*(
                    cluster.submit(f"c{i % 2}", CounterType.increment()) for i in range(12)
                ))
                await converge_and_check(cluster)
                return cluster.stats

        stats = asyncio.run(run())
        assert stats.messages_by_kind["gossip"] > 0
        assert drops(stats) == dict.fromkeys(DROP_COUNTERS, 0)

    def test_response_without_a_client_link_is_counted(self):
        async def run():
            async with make_cluster(request_retry=0.1) as cluster:
                await cluster.submit("c0", CounterType.increment())
                # r0 (c0's affinity replica) loses its response link to c0;
                # the connection itself stays up, so requests still arrive.
                cluster._nodes["r0"].client_out.pop("c0").task.cancel()
                value = await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                return cluster.stats, value

        stats, value = asyncio.run(run())
        assert value == 2  # answered by another replica after the retry
        assert stats.responses_unrouted > 0

    def test_replica_link_write_error_and_dial_failure_are_counted(self):
        async def run():
            async with make_cluster() as cluster:
                await cluster.submit("c0", CounterType.increment())
                link = cluster._nodes["r0"].links["r1"]
                await eventually(lambda: link._writer is not None)
                link._writer.close()
                await eventually(lambda: cluster.stats.link_write_lost > 0)
                written = cluster.stats.link_write_lost
                await cluster.crash_replica("r2", volatile_memory=False)
                await eventually(lambda: cluster.stats.link_dial_lost > 0)
                return written, cluster.stats

        written, stats = asyncio.run(run())
        assert written > 0
        assert stats.link_dial_lost > 0

    def test_request_write_error_and_unreachable_replica_are_counted(self):
        async def run():
            async with make_cluster(request_retry=0.1) as cluster:
                await cluster.submit("c0", CounterType.increment())
                cluster._client_conns["c0"]["r0"].writer.close()
                await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                await eventually(lambda: cluster.stats.requests_write_lost > 0)
                written = cluster.stats.requests_write_lost
                await cluster.crash_replica("r1", volatile_memory=False)
                await cluster.submit("c1", CounterType.increment(), timeout=10.0)
                await eventually(lambda: cluster.stats.requests_unreachable > 0)
                return written, cluster.stats

        written, stats = asyncio.run(run())
        assert written > 0
        assert stats.requests_unreachable > 0


class TestTcpTransport:
    def test_tcp_smoke(self):
        async def run():
            async with make_cluster(transport="tcp") as cluster:
                await asyncio.gather(*(
                    cluster.submit("c0", CounterType.increment()) for _ in range(8)
                ))
                await converge_and_check(cluster)
                assert await cluster.submit("c1", CounterType.read()) == 8
                return cluster.stats

        stats = asyncio.run(run())
        assert stats.frames_sent > 0
        assert stats.messages_by_kind["gossip"] > 0

    def test_tcp_crash_recover_fresh_port(self):
        async def run():
            async with make_cluster(transport="tcp") as cluster:
                for _ in range(3):
                    await cluster.submit("c1", CounterType.increment())
                # Quiesce first: a responded-but-unstable operation held only
                # by the answering replica is a legitimate casualty of a
                # volatile crash (the paper's model allows it), and a lost
                # operation can never satisfy the all-requested quiesce.
                assert await cluster.quiesce(timeout=30.0)
                await cluster.crash_replica("r1", volatile_memory=True)
                await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                await cluster.recover_replica("r1")
                await converge_and_check(cluster)
                return await cluster.submit("c0", CounterType.read())

        assert asyncio.run(run()) == 4
