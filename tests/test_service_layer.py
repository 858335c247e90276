"""Tests for the sharded multi-object service layer
(:mod:`repro.service`): the keyed data-type adapter, the consistent-hash
router, and the sharded algorithm frontend."""

import random

import pytest

from repro.algorithm.memoized import MemoizedReplicaCore
from repro.common import ConfigurationError
from repro.config import ReplicaConfig
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.service.frontend import ShardedFrontend
from repro.service.keyed import KeyedStore
from repro.service.router import ShardRouter, stable_hash


class TestKeyedStore:
    def test_independent_keys_evolve_independently(self):
        store = KeyedStore(CounterType())
        state = store.initial_state()
        state, first = store.apply(state, KeyedStore.at("a", CounterType.increment()))
        state, second = store.apply(state, KeyedStore.at("b", CounterType.add(5)))
        state, third = store.apply(state, KeyedStore.at("a", CounterType.increment()))
        assert (first, second, third) == (1, 5, 2)
        assert store.lookup(state, "a") == 2
        assert store.lookup(state, "b") == 5

    def test_missing_key_reads_base_initial_state(self):
        store = KeyedStore(RegisterType())
        _, value = store.apply(store.initial_state(), KeyedStore.at("never", RegisterType.read()))
        assert value == RegisterType().initial_state()
        assert store.lookup(store.initial_state(), "never") == RegisterType().initial_state()

    def test_read_only_operator_does_not_materialize_keys(self):
        # Regression: is_read_only promises the state is unchanged, so a read
        # on an absent key must not create a phantom entry (which would make
        # keys() depend on whether/where reads executed and break the
        # pointwise-lifted Section 10.3 predicates).
        store = KeyedStore(CounterType())
        state = store.initial_state()
        same, _ = store.apply(state, KeyedStore.at("ghost", CounterType.read()))
        assert same == state
        state, _ = store.apply(state, KeyedStore.at("real", CounterType.increment()))
        after_read, _ = store.apply(state, KeyedStore.at("ghost", CounterType.read()))
        assert after_read == state
        _, keys = store.apply(after_read, KeyedStore.keys_op())
        assert keys == ("real",)

    def test_keys_operator_reports_written_keys(self):
        store = KeyedStore(CounterType())
        state = store.initial_state()
        state, _ = store.apply(state, KeyedStore.at("x", CounterType.increment()))
        state, _ = store.apply(state, KeyedStore.at("y", CounterType.add(2)))
        state, _ = store.apply(state, KeyedStore.at("z", CounterType.read()))  # no write
        same_state, keys = store.apply(state, KeyedStore.keys_op())
        assert same_state == state  # keys() is the identity on states
        assert keys == ("x", "y")

    def test_states_are_hashable_and_order_canonical(self):
        store = KeyedStore(CounterType())
        one = store.initial_state()
        for key in ("b", "a"):
            one, _ = store.apply(one, KeyedStore.at(key, CounterType.increment()))
        other = store.initial_state()
        for key in ("a", "b"):
            other, _ = store.apply(other, KeyedStore.at(key, CounterType.increment()))
        assert one == other
        assert hash(one) == hash(other)

    def test_check_operator_rejects_malformed(self):
        store = KeyedStore(CounterType())
        store.check_operator(KeyedStore.at("k", CounterType.increment()))
        store.check_operator(KeyedStore.keys_op())
        from repro.datatypes import Operator

        with pytest.raises(ValueError):
            store.check_operator(Operator("frobnicate"))
        with pytest.raises(ValueError):
            store.check_operator(Operator("at", ("only-key",)))
        with pytest.raises(ValueError):
            store.check_operator(Operator("at", (42, CounterType.increment())))
        with pytest.raises(ValueError):
            store.check_operator(Operator("at", ("k", "not-an-operator")))
        with pytest.raises(ValueError):
            # Inner operator is validated by the base type.
            store.check_operator(KeyedStore.at("k", Operator("bogus")))
        with pytest.raises(ValueError):
            store.check_operator(Operator("keys", ("extra",)))

    def test_key_of_and_inner_of(self):
        op = KeyedStore.at("shard-me", CounterType.read())
        assert KeyedStore.key_of(op) == "shard-me"
        assert KeyedStore.inner_of(op) == CounterType.read()
        assert KeyedStore.key_of(KeyedStore.keys_op()) is None
        with pytest.raises(ValueError):
            KeyedStore.inner_of(KeyedStore.keys_op())

    def test_commutativity_lifts_pointwise(self):
        store = KeyedStore(CounterType())
        inc_a = KeyedStore.at("a", CounterType.increment())
        inc_b = KeyedStore.at("b", CounterType.increment())
        double_a = KeyedStore.at("a", CounterType.double())
        read_a = KeyedStore.at("a", CounterType.read())
        # Different keys always commute and are independent.
        assert store.commute(inc_a, inc_b)
        assert store.independent(inc_a, inc_b)
        # Same key delegates to the base type.
        assert store.commute(inc_a, inc_a)
        assert not store.commute(inc_a, double_a)
        assert not store.oblivious(read_a, inc_a)
        assert store.is_read_only(read_a)
        assert not store.is_read_only(inc_a)
        assert store.is_read_only(KeyedStore.keys_op())
        # keys() state-commutes with writes but is not oblivious to them.
        assert store.commute(KeyedStore.keys_op(), inc_a)
        assert not store.oblivious(KeyedStore.keys_op(), inc_a)
        assert store.oblivious(KeyedStore.keys_op(), read_a)
        assert store.oblivious(inc_a, KeyedStore.keys_op())

    def test_outcome_matches_per_key_replay(self):
        store = KeyedStore(GSetType())
        operators = [
            KeyedStore.at("evens", GSetType.insert(2)),
            KeyedStore.at("odds", GSetType.insert(1)),
            KeyedStore.at("evens", GSetType.insert(4)),
        ]
        state = store.outcome(operators)
        assert store.lookup(state, "evens") == GSetType().outcome(
            [GSetType.insert(2), GSetType.insert(4)]
        )
        assert store.lookup(state, "odds") == GSetType().outcome([GSetType.insert(1)])


class TestShardRouter:
    def test_routing_is_deterministic_and_total(self):
        router = ShardRouter.for_count(4)
        again = ShardRouter.for_count(4)
        keys = [f"user:{i}" for i in range(500)]
        assert [router.shard_for(k) for k in keys] == [again.shard_for(k) for k in keys]
        assert set(router.spread(keys)) == set(router.shard_ids)

    def test_stable_hash_is_process_independent(self):
        # Pinned value: must never depend on PYTHONHASHSEED.
        assert stable_hash("k0") == stable_hash("k0")
        assert stable_hash("k0") != stable_hash("k1")

    def test_spread_is_reasonably_balanced(self):
        router = ShardRouter.for_count(4)
        counts = router.spread(f"k{i}" for i in range(2000))
        mean = 2000 / 4
        assert all(0.5 * mean <= count <= 1.5 * mean for count in counts.values())

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        # The consistent-hashing contract: going from n to n+1 shards
        # relocates roughly 1/(n+1) of the keyspace, not all of it.
        three = ShardRouter.for_count(3)
        four = ShardRouter.for_count(4)
        keys = [f"k{i}" for i in range(1000)]
        moved = sum(1 for k in keys if three.shard_for(k) != four.shard_for(k))
        assert moved < 500
        # Keys that stay put keep their shard identity.
        stayed = [k for k in keys if four.shard_for(k) in three.shard_ids]
        assert any(three.shard_for(k) == four.shard_for(k) for k in stayed)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardRouter([])
        with pytest.raises(ConfigurationError):
            ShardRouter(["s0", "s0"])
        with pytest.raises(ConfigurationError):
            ShardRouter(["s0"], virtual_nodes=0)
        with pytest.raises(ConfigurationError):
            ShardRouter.for_count(0)
        assert len(ShardRouter.for_count(1)) == 1


class TestShardedFrontend:
    def make_frontend(self, **kwargs):
        defaults = dict(
            num_shards=3, replicas_per_shard=2, client_ids=["alice", "bob"]
        )
        defaults.update(kwargs)
        return ShardedFrontend(CounterType(), **defaults)

    def test_requests_route_by_key_and_responses_arrive(self):
        frontend = self.make_frontend()
        rng = random.Random(7)
        operations = []
        for index in range(9):
            client = "alice" if index % 2 == 0 else "bob"
            operations.append(
                frontend.request(client, f"k{index % 3}", CounterType.increment())
            )
        frontend.run_random(rng, 500)
        frontend.drain(rng)
        assert frontend.outstanding_operations() == 0
        # Each key's increments all landed on one shard, so the final read
        # per key equals the number of increments on it.
        for key in ("k0", "k1", "k2"):
            read = frontend.request("alice", key, CounterType.read(),
                                    prev=[frontend.last_operation_on(key)], strict=True)
            frontend.run_random(rng, 300)
            frontend.drain(rng)
            assert frontend.value_of(read) == 3

    def test_same_key_same_shard(self):
        frontend = self.make_frontend()
        first = frontend.request("alice", "stable-key", CounterType.increment())
        second = frontend.request("bob", "stable-key", CounterType.increment())
        assert frontend.shard_of_operation(first.id) == frontend.shard_of_operation(second.id)
        assert frontend.key_of_operation(first.id) == "stable-key"
        assert frontend.shard_of("stable-key") == frontend.shard_of_operation(first.id)

    def test_cross_shard_prev_is_rejected(self):
        frontend = self.make_frontend(num_shards=4)
        # Find two keys living on different shards.
        keys = [f"k{i}" for i in range(64)]
        by_shard = {}
        for key in keys:
            by_shard.setdefault(frontend.shard_of(key), key)
        assert len(by_shard) >= 2
        key_a, key_b = list(by_shard.values())[:2]
        op_a = frontend.request("alice", key_a, CounterType.increment())
        with pytest.raises(ConfigurationError):
            frontend.request("alice", key_b, CounterType.increment(), prev=[op_a.id])
        # Unknown prev is also rejected.
        from repro.common import OperationId

        with pytest.raises(ConfigurationError):
            frontend.request("alice", key_a, CounterType.increment(),
                             prev=[OperationId("alice", 999)])

    def test_operation_ids_unique_across_shards(self):
        frontend = self.make_frontend(num_shards=4)
        ids = [
            frontend.request("alice", f"k{i}", CounterType.increment()).id
            for i in range(20)
        ]
        assert len(set(ids)) == 20

    def test_invariants_and_traces_hold_per_shard(self):
        for delta in (False, True):
            frontend = self.make_frontend(config=ReplicaConfig(delta_gossip=delta))
            rng = random.Random(11)
            for index in range(12):
                key = f"k{index % 4}"
                prev = [frontend.last_operation_on(key)] if rng.random() < 0.5 and \
                    frontend.last_operation_on(key) else []
                frontend.request(
                    "alice" if rng.random() < 0.5 else "bob", key,
                    CounterType.increment() if rng.random() < 0.7 else CounterType.read(),
                    prev=prev, strict=rng.random() < 0.3,
                )
                frontend.run_random(rng, 30)
                frontend.check_invariants()
            frontend.run_random(rng, 300)
            frontend.drain(rng)
            frontend.check_invariants()
            frontend.check_traces()
            assert frontend.outstanding_operations() == 0

    def test_eventual_orders_respect_per_key_prev_chains(self):
        frontend = self.make_frontend()
        rng = random.Random(3)
        chains = {}
        for index in range(10):
            key = f"k{index % 2}"
            prev = [chains[key]] if key in chains else []
            op = frontend.request("alice", key, CounterType.increment(), prev=prev)
            chains[key] = op.id
        frontend.run_random(rng, 400)
        frontend.drain(rng)
        for shard, order in frontend.eventual_orders().items():
            position = {op_id: i for i, op_id in enumerate(order)}
            system = frontend.systems[shard]
            for op in system.users.requested:
                for dep in op.prev:
                    assert position[dep] < position[op.id]

    def test_custom_replica_factory_is_forwarded(self):
        frontend = self.make_frontend(replica_factory=MemoizedReplicaCore)
        for system in frontend.systems.values():
            assert all(
                isinstance(replica, MemoizedReplicaCore)
                for replica in system.replicas.values()
            )

    def test_unknown_client_rejected(self):
        frontend = self.make_frontend()
        with pytest.raises(ConfigurationError):
            frontend.request("mallory", "k0", CounterType.increment())
