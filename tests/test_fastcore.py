"""Lockstep twin equivalence for :class:`FastReplicaCore`.

The fast core's whole contract is *execution identity*: driven by the same
seeded scheduler, a fast cluster must go through the same responses, the
same eventual witness order and the same final replica states as a base
cluster — the speed comes from cheaper representations, never from a
different execution.  This suite enforces the contract three ways:

* **Seeded twins** across the deployment matrix (plain, delta+incremental,
  compaction, advert/pull; counter, register, g-set; unsharded and sharded),
  comparing responses, failures, the witness order and per-replica replayed
  states.
* **Conformance-corpus replay**: every checked-in vector re-runs with
  ``fast_core=True`` and must match the recorded outcome byte for byte
  (responses, witness, per-replica digests) — the corpus was generated by
  the base core, so any divergence is a fast-core bug by construction.  The
  corpus re-runs a second time with incremental replay switched the other
  way, and one vector per mode re-runs over the wire-codec runtime.
* **Mirror audits**: after a twin run, every fast replica's interned
  mirrors (bitsets, done index, undone set, packed-key backbone) are checked
  against its authoritative sets.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.labels import label_sort_key
from repro.common import INFINITY
from repro.config import ReplicaConfig
from repro.conformance import (
    ScenarioOutcome,
    ScenarioSpec,
    collect_outcome,
    compare_outcomes,
    loads_vector,
    run_scenario,
)
from repro.conformance.scenario import counter_mix, gset_mix, register_mix
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import (
    KeyedWorkloadSpec,
    WorkloadSpec,
    run_keyed_workload,
    run_workload,
)

VECTOR_DIR = Path(__file__).resolve().parent / "vectors"
VECTOR_FILES = sorted(VECTOR_DIR.glob("*.json"))

#: One vector per generator mode for the (slower) net-runtime arm.
NET_SAMPLED = sorted(p for p in VECTOR_FILES if p.name.endswith("_003.json"))

#: The deployment matrix every twin pair runs under.
CONFIGS = {
    "plain": {},
    "delta-incremental": dict(delta_gossip=True, incremental_replay=True),
    "compaction": dict(
        delta_gossip=True,
        incremental_replay=True,
        compaction=CompactionPolicy(min_batch=8, value_retention=32),
        compaction_interval=10.0,
    ),
    "advert": dict(
        delta_gossip=True,
        incremental_replay=True,
        batch_gossip=True,
        compaction=CompactionPolicy(min_batch=8, value_retention=32),
        compaction_interval=10.0,
        advert_gossip=True,
    ),
}

DATA_TYPES = {
    "counter": (CounterType, counter_mix),
    "register": (RegisterType, register_mix),
    "gset": (GSetType, gset_mix),
}


def run_cluster(data_type_name, config, fast):
    type_factory, mix = DATA_TYPES[data_type_name]
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(fast_core=fast, **CONFIGS[config]),
    )
    cluster = SimulatedCluster(
        type_factory(), 3, ["c1", "c2"], params=params, seed=11
    )
    spec = WorkloadSpec(
        operations_per_client=40,
        mean_interarrival=0.5,
        strict_fraction=0.2,
        prev_policy="last_own",
        operator_factory=mix,
    )
    run_workload(cluster, spec, seed=7)
    return cluster


def assert_twin_equivalent(base, fast):
    assert base.responded == fast.responded
    assert base.failed == fast.failed
    assert base.eventual_order() == fast.eventual_order()
    base_states = {rid: r.replayed_state() for rid, r in base.replicas.items()}
    fast_states = {rid: r.replayed_state() for rid, r in fast.replicas.items()}
    assert base_states == fast_states


def assert_mirrors_consistent(core):
    """Audit every interned mirror against the authoritative sets."""
    slots = core._slots
    for i in core.replica_ids:
        for name, sets, bit_maps in (
            ("done", core.done, core._done_bits),
            ("stable", core.stable, core._stable_bits),
        ):
            bits = bit_maps[i]
            mirrored = {op_id for op_id, slot in slots.items() if (bits >> slot) & 1}
            authoritative = {x.id for x in sets[i]}
            assert mirrored == authoritative, f"{name}[{i}] bitset diverged"
    done_here = core.done[core.replica_id]
    assert core._done_index == {x.id: x for x in done_here}
    assert core._undone == core.rcvd - done_here
    order = core.done_order()
    keys = core._order_keys
    assert len(keys) == len(order)
    assert keys == sorted(keys)
    # The packed backbone must agree with the label order exactly.
    labels = [core.labels.get(x.id, INFINITY) for x in order]
    assert labels == sorted(labels, key=label_sort_key)
    for key, x in zip(keys, order):
        assert key == core._label_key(core.labels.get(x.id))


class TestSeededTwins:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("data_type_name", sorted(DATA_TYPES))
    def test_fast_cluster_matches_base_cluster(self, data_type_name, config):
        base = run_cluster(data_type_name, config, fast=False)
        fast = run_cluster(data_type_name, config, fast=True)
        assert all(
            isinstance(r, FastReplicaCore) for r in fast.replicas.values()
        )
        assert not any(
            isinstance(r, FastReplicaCore) for r in base.replicas.values()
        )
        assert_twin_equivalent(base, fast)
        for core in fast.replicas.values():
            assert_mirrors_consistent(core)

    def test_sharded_twins_match(self):
        def run(fast):
            params = SimulationParams(
                df=1.0,
                dg=1.0,
                gossip_period=2.0,
                replica=ReplicaConfig(
                    delta_gossip=True,
                    incremental_replay=True,
                    batch_gossip=True,
                    fast_core=fast,
                    compaction=CompactionPolicy(min_batch=8, value_retention=64),
                    compaction_interval=10.0,
                ),
            )
            cluster = ShardedCluster(
                CounterType(),
                num_shards=2,
                replicas_per_shard=3,
                client_ids=["c1", "c2"],
                params=params,
                seed=5,
            )
            spec = KeyedWorkloadSpec(
                operations_per_client=30,
                mean_interarrival=0.5,
                num_keys=6,
                strict_fraction=0.1,
            )
            run_keyed_workload(cluster, spec, seed=9)
            return cluster

        base, fast = run(False), run(True)
        assert base.responded == fast.responded
        assert base.failed == fast.failed
        assert base.eventual_orders() == fast.eventual_orders()
        for sid in fast.shard_ids:
            for core in fast.shards[sid].replicas.values():
                assert isinstance(core, FastReplicaCore)
                assert_mirrors_consistent(core)
        fast.check_traces()
        fast.check_invariants()


def _overlay(doc, toggle_replay=False, **changes):
    """The vector's scenario with the given replica features changed (and
    incremental replay flipped if *toggle_replay*)."""
    spec = ScenarioSpec.from_doc(doc["scenario"])
    assert not spec.params.replica.fast_core, "corpus must be generated by the base core"
    if toggle_replay:
        changes["incremental_replay"] = not spec.params.replica.incremental_replay
    replica = dataclasses.replace(spec.params.replica, **changes)
    return dataclasses.replace(spec, params=dataclasses.replace(spec.params, replica=replica))


def _assert_reproduces(path, runtime="sim", toggle_replay=False, **changes):
    doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
    spec = _overlay(doc, toggle_replay, **changes)
    expected = ScenarioOutcome.from_doc(doc["expected"])
    run = run_scenario(spec, runtime=runtime)
    for cluster in run.clusters.values():
        for core in cluster.replicas.values():
            assert type(core) is FastReplicaCore
    mismatches = compare_outcomes(expected, collect_outcome(run))
    assert mismatches == [], f"{path.name}: {mismatches}"


class TestConformanceCorpusReplay:
    @pytest.mark.parametrize("path", VECTOR_FILES, ids=lambda p: p.stem)
    def test_fast_core_reproduces_corpus_vector(self, path):
        _assert_reproduces(path, fast_core=True)

    @pytest.mark.parametrize("path", VECTOR_FILES, ids=lambda p: p.stem)
    def test_fast_core_with_incremental_replay_toggled_reproduces_corpus_vector(self, path):
        # Incremental replay caches the last response replay and re-applies
        # only the changed suffix.  Each vector re-runs with the cache
        # switched the other way from how it was recorded: the cache must be
        # invisible in both directions.
        _assert_reproduces(path, toggle_replay=True, fast_core=True)

    @pytest.mark.parametrize("path", NET_SAMPLED, ids=lambda p: p.stem)
    def test_fast_core_reproduces_vector_over_net(self, path):
        # Same vectors, but every message crosses the binary wire codec —
        # exercises the coalesced receive_gossip_batch frame path too.
        _assert_reproduces(path, runtime="net", fast_core=True)
