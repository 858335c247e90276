"""``ShardedFrontend`` — N independent ESDS replica groups behind one router.

Each shard is a complete, unmodified
:class:`~repro.algorithm.system.AlgorithmSystem` managing a
:class:`~repro.service.keyed.KeyedStore` over the base data type; the
frontend consistent-hashes every request's key to pick the shard and mints
globally unique operation identifiers (one counter per client per shard,
under the ``client@shard`` composite identity — each shard sees one
contiguous seqno run per client, so compacted id summaries stay at one
interval per client), and the union of the shard traces is a well-formed
multi-object history.

Client-specified constraints (``prev`` sets) are a *per-object* notion in the
paper, and shards are independent objects: a ``prev`` edge must therefore
stay within one shard.  Since the router maps equal keys to equal shards,
per-key dependency chains (the session-guarantee pattern) always satisfy
this; a cross-shard ``prev`` is rejected with :class:`ConfigurationError`
rather than silently weakened.

The frontend intentionally exposes the same driving surface as a single
``AlgorithmSystem`` (``run_random``, ``drain``, invariant and trace checks),
so every verification tool in :mod:`repro.verification` applies shard by
shard.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algorithm.system import AlgorithmSystem, ReplicaFactory
from repro.common import ConfigurationError, OperationId, ensure_not_stale
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator, SerialDataType
from repro.service.keyed import KeyedStore
from repro.service.reshard import chain_ops
from repro.service.router import (
    KeyRangeMove,
    KeyspaceDirectory,
    ShardRouter,
    composite_client,
    stable_hash,
)


class ShardedFrontend:
    """A keyed, sharded data service built from independent ESDS instances.

    Parameters
    ----------
    base_type:
        The serial data type stored under every key.
    num_shards:
        Number of independent replica groups (ignored when *router* given).
    replicas_per_shard:
        Replicas in each group (the algorithm requires at least two).
    client_ids:
        Clients; each shard hosts a front end for every client under the
        ``client@shard`` composite identity, and identifier counters run
        per (client, shard) so each shard's seqnos are contiguous while
        operation identifiers stay globally unique.
    config:
        The replica features (:class:`~repro.config.ReplicaConfig`),
        forwarded to every shard's :class:`AlgorithmSystem`.  ``compaction``
        may be one policy applied everywhere, or a mapping from shard id to
        policy (shards absent from the mapping run uncompacted), so hot
        shards can compact aggressively while cold ones stay lazy.
    """

    def __init__(
        self,
        base_type: SerialDataType,
        num_shards: int = 2,
        replicas_per_shard: int = 3,
        client_ids: Sequence[str] = ("c0",),
        router: Optional[ShardRouter] = None,
        replica_factory: Optional[ReplicaFactory] = None,
        virtual_nodes: int = 64,
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        self.base_type = base_type
        self.store_type = KeyedStore(base_type)
        self.router = router or ShardRouter.for_count(num_shards, virtual_nodes=virtual_nodes)
        self.shard_ids: Tuple[str, ...] = self.router.shard_ids
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.config = config if config is not None else ReplicaConfig()
        self._replicas_per_shard = replicas_per_shard
        self._replica_factory = replica_factory

        # Each shard hosts front ends under the composite per-shard client
        # identities the directory mints operation ids with: one contiguous
        # seqno counter per (client, shard), so a shard's compacted id
        # summary stays at one interval per client.
        self.systems: Dict[str, AlgorithmSystem] = {
            shard: self._build_system(shard) for shard in self.shard_ids
        }
        #: Shared routing/bookkeeping: unique identifiers, same-shard prev
        #: validation, operation-to-shard/key records.
        self.directory = KeyspaceDirectory(self.router, self.client_ids, base_type)

    def _build_system(self, shard: str) -> AlgorithmSystem:
        """One shard's complete ESDS instance (also used by ``add_shard``)."""
        return AlgorithmSystem(
            self.store_type,
            [f"{shard}.r{i}" for i in range(self._replicas_per_shard)],
            [composite_client(c, shard) for c in self.client_ids],
            replica_factory=self._replica_factory,
            config=self.config.for_shard(shard),
        )

    # -- routing ---------------------------------------------------------------

    def shard_of(self, key: str) -> str:
        """The shard identifier owning *key*."""
        return self.router.shard_for(key)

    def shard_of_operation(self, op_id: OperationId) -> str:
        """The shard a previously requested operation was routed to."""
        return self.directory.shard_of_operation(op_id)

    def key_of_operation(self, op_id: OperationId) -> str:
        """The key a previously requested operation addressed."""
        return self.directory.key_of_operation(op_id)

    def last_operation_on(self, key: str) -> Optional[OperationId]:
        """The most recently requested operation on *key* (any client)."""
        return self.directory.last_operation_on(key)

    # -- client interface ------------------------------------------------------

    def request(
        self,
        client: str,
        key: str,
        operator: Operator,
        prev: Sequence[OperationId] = (),
        strict: bool = False,
    ) -> OperationDescriptor:
        """Issue a keyed operation; returns the descriptor handed to the shard.

        ``prev`` identifiers must belong to operations previously routed to
        the *same* shard (always true for same-key dependencies).
        """
        shard, operation = self.directory.route(client, key, operator, prev, strict)
        self.systems[shard].request(operation)
        return operation

    # -- scheduling ------------------------------------------------------------

    def run_random(self, rng: random.Random, steps: int) -> int:
        """Perform up to *steps* random actions, interleaving shards randomly.

        Each step picks a shard uniformly and performs one of its enabled
        actions; shards progress independently, exactly as independent
        deployments would.
        """
        performed = 0
        shard_list = list(self.shard_ids)
        for _ in range(steps):
            shard = rng.choice(shard_list)
            if self.systems[shard].random_step(rng) is not None:
                performed += 1
        return performed

    def drain(self, rng: random.Random) -> None:
        """Deliver all traffic and gossip every shard to quiescence."""
        for shard in self.shard_ids:
            self.systems[shard].drain(rng)

    # -- resharding ------------------------------------------------------------

    def add_shard(self, shard_id: str, rng: random.Random) -> List[KeyRangeMove]:
        """Grow the ring by one shard: see :meth:`reshard`."""
        return self.reshard(self.router.add_shard(shard_id), rng)

    def drain_shard(self, shard_id: str, rng: random.Random) -> List[KeyRangeMove]:
        """Shrink the ring by one shard; its key ranges migrate to the
        surviving successors and the retired system's history stays
        readable.  See :meth:`reshard`."""
        return self.reshard(self.router.remove_shard(shard_id), rng)

    def reshard(self, new_router: ShardRouter, rng: random.Random) -> List[KeyRangeMove]:
        """Elastic reshard, synchronous flavour: drain to stability, migrate
        each moved key range's frozen history into its new owner as a
        ``prev``-chained slice (source eventual order), re-drain, flip.

        The channel-level frontend has no in-flight window — draining first
        freezes every slice at stability, so the flip is atomic here; the
        simulator's :meth:`repro.sim.sharded.ShardedCluster.reshard` is the
        live variant with a genuine dual-route handoff window.  Per-key
        barrier constraints are still installed (every post-reshard
        operation on a migrated key is chained after the migrated tail), so
        the destination's min-label order can never reorder the relocated
        history.  Returns the movement plan that was executed.
        """
        plan = ShardRouter.movement_plan(self.router, new_router)
        for shard in new_router.shard_ids:
            if shard not in self.router.shard_ids:
                if shard in self.systems:
                    raise ConfigurationError(
                        f"shard id {shard!r} was retired by an earlier reshard "
                        f"and cannot be reused"
                    )
                self.systems[shard] = self._build_system(shard)
        # Freeze every slice: all traffic answered and stable everywhere.
        self.drain(rng)
        by_pair: Dict[Tuple[str, str], List[KeyRangeMove]] = {}
        for move in plan:
            by_pair.setdefault((move.source, move.destination), []).append(move)
        hash_cache: Dict[str, int] = {}
        for (source, destination), moves in sorted(by_pair.items()):
            system = self.systems[source]
            key_ops: Dict[str, List[OperationId]] = {}
            for op_id, key in self.directory.keyed_operations():
                point = hash_cache.get(key)
                if point is None:
                    point = hash_cache[key] = stable_hash(key)
                if any(move.contains(point) for move in moves):
                    key_ops.setdefault(key, []).append(op_id)
            slice_ids = {op_id for ids in key_ops.values() for op_id in ids}
            if not slice_ids:
                continue
            order = [op_id for op_id in system.eventual_order() if op_id in slice_ids]
            by_id = {op.id: op for op in system.users.requested}
            target = self.systems[destination]
            present = {op.id for op in target.users.requested}
            chained = chain_ops(
                [by_id[op_id] for op_id in order],
                key_of=self.directory.key_of_operation,
            )
            for operation in chained:
                # A history migrating back to a former owner is partly
                # present already; the per-key chain links survive the skip.
                if operation.id in present:
                    continue
                target.ensure_client(operation.id.client)
                target.request(operation)
            target.drain(rng)
            for op_id in order:
                # Iterating in slice order, the last write per key is its
                # migrated tail: post-reshard operations on the key chain
                # after the relocated history.
                self.directory.set_barrier(
                    self.directory.key_of_operation(op_id), frozenset({op_id})
                )
        self.router = new_router
        self.directory.router = new_router
        self.shard_ids = new_router.shard_ids
        return plan

    # -- results ---------------------------------------------------------------

    @property
    def responded(self) -> Dict[OperationId, Any]:
        """Every delivered response, across all shards.

        After a reshard, a migrated operation is answered both by its
        minting shard and by the destination's re-answer of the injected
        chain; the minting shard's value wins the merge (the two agree when
        the handoff preserved the per-key order — which the trace oracles
        verify)."""
        merged: Dict[OperationId, Any] = {}
        for sid, system in self.systems.items():
            for op_id, value in system.users.responded.items():
                if self.directory.origin_shard(op_id, sid) == sid:
                    merged[op_id] = value
                else:
                    merged.setdefault(op_id, value)
        return merged

    @property
    def failed(self) -> Dict[OperationId, str]:
        """Operations declared unanswerable — every replica of their shard
        NACKed the retransmit because the compacted response value aged out
        of its retained-value ledger (finite ``value_retention``).  The
        explicit failure signal replaces silently-never-answering."""
        merged: Dict[OperationId, str] = {}
        for sid, system in self.systems.items():
            for frontend in system.frontends.values():
                for op_id, reason in frontend.failed.items():
                    if self.directory.origin_shard(op_id, sid) == sid:
                        merged[op_id] = reason
                    else:
                        merged.setdefault(op_id, reason)
        return merged

    def value_of(self, operation: OperationDescriptor) -> Any:
        """The value returned for *operation* (KeyError when unanswered,
        :class:`~repro.common.StaleValueError` when it failed for good)."""
        shard = self.directory.shard_of_operation(operation.id)
        system = self.systems[shard]
        ensure_not_stale(system.frontends[operation.id.client].failed, operation.id)
        return system.users.responded[operation.id]

    def outstanding_operations(self) -> int:
        """Requested operations neither answered nor failed, across shards."""
        total = 0
        for system in self.systems.values():
            failed = sum(len(fe.failed) for fe in system.frontends.values())
            total += len(system.users.requested) - len(system.users.responded) - failed
        return total

    def eventual_orders(self) -> Dict[str, List[OperationId]]:
        """Each shard's eventual total order (by system-wide minimum label)."""
        return {shard: system.eventual_order() for shard, system in self.systems.items()}

    # -- verification ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Run the Section 7/8 invariant checker on every shard."""
        from repro.verification.invariants import AlgorithmInvariantChecker

        for system in self.systems.values():
            AlgorithmInvariantChecker(system).check_all()

    def check_traces(self, check_nonstrict: bool = False) -> None:
        """Check the Theorem 5.7/5.8 guarantees on every shard's trace."""
        from repro.verification.serializability import check_system_trace

        for system in self.systems.values():
            check_system_trace(system, check_nonstrict=check_nonstrict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedFrontend({self.store_type.name}, shards={len(self.shard_ids)}, "
            f"clients={len(self.client_ids)})"
        )
