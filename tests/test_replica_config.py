"""Tests for the unified :class:`ReplicaConfig`.

``ReplicaConfig`` is the one place a replica feature is declared.  Every
deployment entry point (:class:`AlgorithmSystem`,
:class:`SimulationParams`/:class:`SimulatedCluster`,
:class:`ShardedCluster`, :class:`ShardedFrontend`, :class:`NetCluster`)
takes it — as ``config=``, or ``replica=`` on the parameter dataclasses —
and must hand every replica core the class the config selects with each
``configure_*`` switch applied.
"""

import asyncio

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.replica import ReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import ConfigurationError
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.net.runtime import NetCluster, NetParams
from repro.service.frontend import ShardedFrontend
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.sharded import ShardedCluster

POLICY = CompactionPolicy(min_batch=4, value_retention=64)
CONFIG = ReplicaConfig(
    fast_core=True,
    delta_gossip=True,
    full_state_interval=4,
    incremental_replay=True,
    compaction=POLICY,
    advert_gossip=True,
    checkpoint_chunk=3,
)
#: The reference replica with every switch off, and the production mix.
CONFIGS = [ReplicaConfig(), CONFIG]
MAPPING = ReplicaConfig(compaction={"s0": POLICY})


def assert_configured(cores, config):
    """Every core is of the configured class with every switch applied."""
    cores = list(cores)
    assert cores
    for core in cores:
        assert type(core) is config.core_class()
        assert core.delta_gossip is config.delta_gossip
        if config.delta_gossip:
            assert core.full_state_interval == config.full_state_interval
        assert core._incremental_replay is config.incremental_replay
        assert core.compaction == config.compaction
        assert core.advert_gossip is config.advert_gossip
        assert core.checkpoint_chunk == config.checkpoint_chunk


def test_core_class_is_the_two_way_choice():
    assert ReplicaConfig().core_class() is ReplicaCore
    assert ReplicaConfig(fast_core=True).core_class() is FastReplicaCore


@pytest.mark.parametrize("config", CONFIGS, ids=["reference", "production"])
class TestEntryPointsConfigureEveryCore:
    def test_algorithm_system(self, config):
        system = AlgorithmSystem(CounterType(), ["r1", "r2", "r3"], ["c0"], config=config)
        assert system.config is config
        assert_configured(system.replicas.values(), config)

    def test_simulated_cluster(self, config):
        cluster = SimulatedCluster(
            CounterType(), 3, ["c0"], params=SimulationParams(replica=config), seed=1
        )
        assert_configured(cluster.replicas.values(), config)
        _, value = cluster.execute("c0", CounterType.increment())
        assert value == 1

    def test_sharded_cluster(self, config):
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2, config=config, seed=3
        )
        assert cluster.config is config
        for shard in cluster.shards.values():
            assert_configured(shard.replicas.values(), config)

    def test_sharded_frontend(self, config):
        frontend = ShardedFrontend(
            CounterType(), num_shards=2, replicas_per_shard=2, config=config
        )
        for system in frontend.systems.values():
            assert_configured(system.replicas.values(), config)

    def test_net_cluster(self, config):
        async def run():
            cluster = NetCluster(CounterType(), 2, ("c0",), config=config)
            assert_configured(cluster.replicas.values(), config)
            async with cluster:
                values = [await cluster.submit("c0", CounterType.increment()) for _ in range(4)]
                await cluster.quiesce()
            return values

        assert asyncio.run(run()) == [1, 2, 3, 4]


class TestParamsCarryOneReplicaConfig:
    def test_params_default_to_the_reference_config(self):
        assert SimulationParams().replica == ReplicaConfig()
        assert NetParams().replica == ReplicaConfig()

    def test_net_cluster_config_replaces_params_replica(self):
        cluster = NetCluster(
            CounterType(), 2, ("c0",),
            params=NetParams(gossip_period=0.2, replica=ReplicaConfig(delta_gossip=True)),
            config=CONFIG,
        )
        assert cluster.params.gossip_period == 0.2
        assert cluster.params.replica is CONFIG
        assert_configured(cluster.replicas.values(), CONFIG)

    def test_sharded_cluster_defaults_to_params_replica(self):
        replica = ReplicaConfig(batch_gossip=True, delta_gossip=True)
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            params=SimulationParams(replica=replica),
        )
        assert cluster.config is replica
        for shard in cluster.shards.values():
            assert shard.params.replica == replica


class TestPerShardCompaction:
    def test_mapping_resolves_per_shard(self):
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2, config=MAPPING
        )
        frontend = ShardedFrontend(
            CounterType(), num_shards=2, replicas_per_shard=2, config=MAPPING
        )
        for cores in (
            {s: c.replicas.values() for s, c in cluster.shards.items()},
            {s: system.replicas.values() for s, system in frontend.systems.items()},
        ):
            assert all(core.compaction == POLICY for core in cores["s0"])
            assert all(core.compaction is None for core in cores["s1"])

    def test_mapping_compaction_rejected_outside_sharded_entry_points(self):
        with pytest.raises(ConfigurationError):
            NetParams(replica=MAPPING)
        with pytest.raises(ConfigurationError):
            NetCluster(CounterType(), 2, ("c0",), config=MAPPING)
        with pytest.raises(ConfigurationError):
            AlgorithmSystem(CounterType(), ["r1", "r2"], ["c0"], config=MAPPING)
        with pytest.raises(ConfigurationError):
            SimulationParams(replica=MAPPING)


class TestValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(full_state_interval=0),
            dict(checkpoint_chunk=0),
            dict(compaction_interval=1.0),
            dict(compaction=POLICY, compaction_interval=0.0),
        ],
    )
    def test_incoherent_fields_rejected(self, fields):
        with pytest.raises(ConfigurationError):
            ReplicaConfig(**fields)
