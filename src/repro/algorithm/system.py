"""The complete system ``ESDS-Alg x Users`` (Section 6.4).

``AlgorithmSystem`` composes the well-formed clients, one front end per
client, one replica per replica identifier, and a reliable non-FIFO channel
for every (front end, replica) and (replica, replica) pair.  Every action of
the composition is exposed as a method named after the paper's action
(``request``, ``send_request``, ``receive_request``, ``do_it``,
``send_response``, ``receive_response``, ``response``, ``send_gossip``,
``receive_gossip``), plus a random scheduler that picks among currently
enabled actions — this is the execution harness used by the invariant and
simulation-relation tests.

The class also exposes the derived state variables of Fig. 8:

* ``ops`` — operations done at any replica;
* ``minlabel`` — the system-wide minimum label of each operation;
* ``lc_r`` / ``mc_r(m)`` — local and message constraints;
* ``sc`` — the system constraints agreed by every replica and every
  in-transit gossip message;
* ``po`` — the partial order induced by ``TC(CSC(ops) u sc)`` on ``ops``;
* ``potential_rept`` — response messages in transit towards each client.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithm.channel import Channel
from repro.algorithm.checkpoint import CompactionLedger
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.labels import Label, LabelOrInfinity, label_min, label_sort_key
from repro.algorithm.messages import GossipMessage, RequestMessage, ResponseMessage
from repro.algorithm.replica import ReplicaCore
from repro.common import INFINITY, ConfigurationError, OperationId, SpecificationError
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor, client_specified_constraints
from repro.core.orders import PartialOrder, induced_order, transitive_closure
from repro.datatypes.base import SerialDataType
from repro.spec.guarantees import TraceRecord
from repro.spec.users import Users

#: Factory signature for building replica cores (lets tests and benchmarks
#: plug in the memoized / commute variants).
ReplicaFactory = Callable[[str, Sequence[str], SerialDataType], ReplicaCore]


class AlgorithmSystem:
    """The flattened composition of Users, front ends, channels and replicas.

    Parameters
    ----------
    data_type:
        The serial data type managed by the service.
    replica_ids:
        Identifiers of the replicas (at least two).
    client_ids:
        Identifiers of the clients (one front end each).
    replica_factory:
        Optional factory to construct replica cores; defaults to the class
        ``config`` selects (:meth:`~repro.config.ReplicaConfig.core_class`).
    users:
        Optional pre-built :class:`~repro.spec.users.Users` automaton (e.g. a
        ``SafeUsers`` when using the ``Commute`` replicas).
    config:
        The replica features (:class:`~repro.config.ReplicaConfig`; the
        defaults when omitted).  Everything is threaded into each replica
        core; what each feature does here:

        * ``delta_gossip`` — ``send_gossip`` transmits destination-specific
          deltas (only knowledge the destination has not acknowledged)
          instead of the replica's full state, with a full-state fallback
          every ``full_state_interval`` sends; see
          :mod:`repro.algorithm.delta`.  Delta and full gossip induce
          identical executions under the same scheduler.
        * ``incremental_replay`` — replicas cache their last response replay
          and re-apply only the changed suffix (observable values are
          unchanged; only ``stats.value_applications`` drops).
        * ``compaction`` — every replica folds its stable-everywhere prefix
          into a checkpoint and drops the per-operation records (see
          :mod:`repro.algorithm.checkpoint`).  The system keeps the agreed
          compacted prefix in a :class:`CompactionLedger` so eventual-order
          witnesses and invariant checks still see the full history.  Only
          a single policy is accepted here; per-shard mappings belong to
          the sharded entry points.
        * ``advert_gossip`` — gossip carries a compact checkpoint *advert*
          instead of the checkpoint body; a replica behind the advertised
          frontier issues a pull request and the advertiser answers with
          checkpoint-transfer chunks of at most ``checkpoint_chunk`` values.
          Pull and transfer messages travel on the gossip channels and are
          dispatched by :meth:`receive_gossip`.
    """

    def __init__(
        self,
        data_type: SerialDataType,
        replica_ids: Sequence[str],
        client_ids: Sequence[str],
        replica_factory: Optional[ReplicaFactory] = None,
        users: Optional[Users] = None,
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        if len(set(replica_ids)) < 2:
            raise ConfigurationError("the algorithm assumes at least two replicas")
        if not client_ids:
            raise ConfigurationError("at least one client is required")
        self.config = config if config is not None else ReplicaConfig()
        self.config.require_single_policy("AlgorithmSystem")
        self.data_type = data_type
        self.replica_ids: Tuple[str, ...] = tuple(replica_ids)
        self.client_ids: Tuple[str, ...] = tuple(client_ids)

        factory = replica_factory or self.config.core_class()
        self.users = users if users is not None else Users()
        self.frontends: Dict[str, FrontEndCore] = {
            c: FrontEndCore(c, self.replica_ids) for c in self.client_ids
        }
        self.replicas: Dict[str, ReplicaCore] = {
            r: factory(r, self.replica_ids, data_type) for r in self.replica_ids
        }
        #: The system-wide compacted stable prefix, tiled (and cross-checked)
        #: from every replica's compaction reports.
        self.compaction_ledger = CompactionLedger()
        for core in self.replicas.values():
            self.config.configure_core(core)
            core.on_compact = self.compaction_ledger.record

        self.request_channels: Dict[Tuple[str, str], Channel[RequestMessage]] = {
            (c, r): Channel(c, r) for c in self.client_ids for r in self.replica_ids
        }
        self.response_channels: Dict[Tuple[str, str], Channel[ResponseMessage]] = {
            (r, c): Channel(r, c) for r in self.replica_ids for c in self.client_ids
        }
        self.gossip_channels: Dict[Tuple[str, str], Channel[GossipMessage]] = {
            (a, b): Channel(a, b)
            for a in self.replica_ids
            for b in self.replica_ids
            if a != b
        }

        #: External trace (request/response events) for the guarantee checks.
        self.trace = TraceRecord()

    # ====================================================================== #
    # External and internal actions                                          #
    # ====================================================================== #

    def request(self, operation: OperationDescriptor) -> None:
        """``request(x)`` — client issues an operation (checked for
        well-formedness by the Users automaton)."""
        self.users.assert_well_formed(operation)
        self.users.requested.add(operation)
        self.frontends[operation.id.client].request(operation)
        self.trace.record_request(operation)

    def ensure_client(self, client_id: str) -> None:
        """Admit a client identity after construction (resharding: migrated
        operations keep the composite ``client@shard`` identity their source
        shard minted them under, so the destination system hosts a front end
        for that foreign identity too).  Idempotent."""
        if client_id in self.frontends:
            return
        self.client_ids = self.client_ids + (client_id,)
        self.frontends[client_id] = FrontEndCore(client_id, self.replica_ids)
        for replica in self.replica_ids:
            self.request_channels[(client_id, replica)] = Channel(client_id, replica)
            self.response_channels[(replica, client_id)] = Channel(replica, client_id)

    def send_request(self, client: str, replica: str, operation: OperationDescriptor) -> None:
        """``send_cr(("request", x))`` — front end relays a pending request."""
        message = self.frontends[client].make_request_message(operation)
        self.request_channels[(client, replica)].send(message)

    def receive_request(
        self, client: str, replica: str, message: Optional[RequestMessage] = None,
        rng: Optional[random.Random] = None,
    ) -> RequestMessage:
        """``receive_cr(("request", x))`` — deliver one request message.

        A retransmit the replica can provably never answer (compacted, value
        evicted) triggers an immediate stale-response NACK onto the response
        channel instead of a silent drop."""
        delivered = self.request_channels[(client, replica)].receive(message, rng)
        core = self.replicas[replica]
        core.receive_request(delivered)
        for operation in core.take_stale_nacks():
            self.response_channels[(replica, operation.id.client)].send(
                ResponseMessage(operation=operation, value=None, stale=True, sender=replica)
            )
        return delivered

    def do_it(self, replica: str, operation: OperationDescriptor, label: Optional[Label] = None) -> Label:
        """``do_it_r(x, l)``."""
        return self.replicas[replica].do_it(operation, label)

    def send_response(self, replica: str, operation: OperationDescriptor) -> ResponseMessage:
        """``send_rc(("response", x, v))``."""
        message = self.replicas[replica].make_response(operation)
        client = operation.id.client
        self.response_channels[(replica, client)].send(message)
        return message

    def receive_response(
        self, replica: str, client: str, message: Optional[ResponseMessage] = None,
        rng: Optional[random.Random] = None,
    ) -> ResponseMessage:
        """``receive_rc(("response", x, v))``."""
        delivered = self.response_channels[(replica, client)].receive(message, rng)
        self.frontends[client].receive_response(delivered)
        return delivered

    def response(self, operation: OperationDescriptor) -> Any:
        """``response(x, v)`` — front end answers the client."""
        client = operation.id.client
        value = self.frontends[client].respond(operation)
        self.users.responded[operation.id] = value
        self.trace.record_response(operation, value)
        return value

    def send_gossip(self, source: str, destination: str) -> GossipMessage:
        """``send_rr'(("gossip", ...))`` — a full-state message by default, or
        a destination-specific delta when the source replica has delta gossip
        enabled."""
        if source == destination:
            raise SpecificationError("a replica does not gossip with itself")
        message = self.replicas[source].make_gossip(destination)
        self.gossip_channels[(source, destination)].send(message)
        return message

    def receive_gossip(
        self, source: str, destination: str, message: Optional[GossipMessage] = None,
        rng: Optional[random.Random] = None,
    ) -> GossipMessage:
        """``receive_r'r(("gossip", ...))`` — also dispatches the advert/pull
        protocol's pull-request and checkpoint-transfer messages, which share
        the gossip channels.  Receiving a gossip message whose advert shows
        this replica behind enqueues a pull; receiving a pull enqueues the
        transfer chunks back toward the requester."""
        delivered = self.gossip_channels[(source, destination)].receive(message, rng)
        replica = self.replicas[destination]
        if delivered.kind == "pull":
            for transfer in replica.receive_pull_request(delivered):
                self.gossip_channels[(destination, transfer.requester)].send(transfer)
        elif delivered.kind == "transfer":
            replica.receive_transfer(delivered)
        else:
            replica.receive_gossip(delivered)
            for pull in replica.take_pending_pulls():
                self.gossip_channels[(destination, pull.target)].send(pull)
        return delivered

    # ====================================================================== #
    # Derived variables (Fig. 8)                                             #
    # ====================================================================== #

    def ops(self) -> Set[OperationDescriptor]:
        """``ops = U_r done_r[r]`` — operations done at any replica.

        Operations folded into a compaction checkpoint remain done (their
        records just moved into the base state), so the compacted prefix is
        included from the ledger.
        """
        result: Set[OperationDescriptor] = set(self.compaction_ledger.prefix)
        for replica in self.replicas.values():
            result |= replica.done_here()
        return result

    def compacted_ops(self, replica: str) -> List[OperationDescriptor]:
        """The operations replica *r* has folded into its checkpoint, in the
        agreed label order (reconstructed from the ledger — the replica
        itself keeps only the compact id summary)."""
        return self.compaction_ledger.prefix[: self.replicas[replica].checkpoint.count]

    def minlabel(self, op_id: OperationId) -> LabelOrInfinity:
        """``minlabel(id)`` — the system-wide minimum label."""
        best: LabelOrInfinity = INFINITY
        for replica in self.replicas.values():
            best = label_min(best, replica.label_of(op_id))
        return best

    def eventual_order(self) -> List[OperationId]:
        """The identifiers of ``ops`` sorted by system-wide minimum label.

        Once gossip has quiesced this is the eventual total order used as the
        witness for Theorem 5.8 checks.  The compacted prefix comes first, in
        the order the replicas folded it (its minimum labels may no longer be
        held anywhere — that is the point of compaction); every tracked
        operation sorts after it, because a replica only compacts a prefix
        whose labels every remaining label exceeds.
        """
        compacted_ids = self.compaction_ledger.ids
        suffix = [
            x.id
            for x in sorted(
                (x for x in self.ops() if x.id not in compacted_ids),
                key=lambda op: label_sort_key(self.minlabel(op.id)),
            )
        ]
        return [x.id for x in self.compaction_ledger.prefix] + suffix

    def local_constraints(self, replica: str) -> Set[Tuple[OperationId, OperationId]]:
        """``lc_r`` restricted to the identifiers of ``ops``.

        The paper defines ``lc_r`` over all identifiers; pairs whose second
        component has no label at ``r`` (label ``oo``) are included whenever
        the first component is labelled, which is why the computation ranges
        over the ``ops`` universe rather than only the labels ``r`` holds.

        An identifier compacted at ``r`` has no tracked label either, but for
        the opposite reason: its archived label sat at or below the frontier,
        beneath every label ``r`` still tracks.  Compacted identifiers are
        therefore ordered among themselves by their (frozen) ledger position
        and before every other identifier.
        """
        universe = {x.id for x in self.ops()}
        core = self.replicas[replica]
        return self._constraints_with_prefix(replica, universe, core.label_of)

    def _compacted_positions(self, replica: str) -> Dict[OperationId, int]:
        """Ledger position of each identifier *replica* has compacted."""
        count = self.replicas[replica].checkpoint.count
        return {x.id: index for index, x in enumerate(self.compaction_ledger.prefix[:count])}

    def _constraints_with_prefix(
        self,
        replica: str,
        universe: Set[OperationId],
        label_of: Callable[[OperationId], LabelOrInfinity],
        position: Optional[Dict[OperationId, int]] = None,
    ) -> Set[Tuple[OperationId, OperationId]]:
        """The label-induced constraints over *universe* as seen at
        *replica*, with its compacted identifiers ordered among themselves
        by their frozen ledger position and before every other identifier —
        the shared core of ``lc_r`` and ``mc_r(m)``.  *position* overrides
        the replica's own compacted-prefix positions (used for transfer
        messages, whose adoption would extend the covered prefix)."""
        if position is None:
            position = self._compacted_positions(replica)
        constraints: Set[Tuple[OperationId, OperationId]] = set()
        for a in universe:
            pos_a = position.get(a)
            if pos_a is not None:
                for b in universe:
                    if a == b:
                        continue
                    pos_b = position.get(b)
                    if pos_b is None or pos_a < pos_b:
                        constraints.add((a, b))
                continue
            label_a = label_of(a)
            if label_a is INFINITY:
                continue
            for b in universe:
                if a != b and b not in position and label_a < label_of(b):
                    constraints.add((a, b))
        return constraints

    def message_constraints(
        self, replica: str, message
    ) -> Set[Tuple[OperationId, OperationId]]:
        """``mc_r(m)`` — the local constraints replica *r* would have if it
        received *message* immediately (restricted to the ``ops`` universe).

        Identifiers compacted at *r* keep their frozen prefix order (the
        receiver ignores gossiped labels for them), exactly as in
        :meth:`local_constraints`.

        Advert/pull messages are handled by what receiving them actually
        does: a *pull* conveys no knowledge (``mc_r`` is just ``lc_r``); a
        *transfer* extends the receiver's covered prefix to the transferred
        checkpoint (its identifiers adopt their frozen ledger positions); a
        gossip message carrying an **advert** contributes only its label
        payload — the advert becomes knowledge only after the pull
        completes, so it adds nothing here.
        """
        core = self.replicas[replica]
        universe = {x.id for x in self.ops()}
        if message.kind == "pull":
            return self.local_constraints(replica)
        if message.kind == "transfer":
            count = max(core.checkpoint.count, message.ids.count)
            position = {
                x.id: index
                for index, x in enumerate(self.compaction_ledger.prefix[:count])
            }
            return self._constraints_with_prefix(
                replica,
                universe,
                lambda op_id: core.label_of(op_id),
                position=position,
            )
        checkpoint = core.checkpoint
        merged: Dict[OperationId, LabelOrInfinity] = {
            op_id: label_min(core.label_of(op_id), message.label_of(op_id))
            for op_id in universe
            if not checkpoint.covers(op_id)
        }
        return self._constraints_with_prefix(
            replica, universe, lambda op_id: merged.get(op_id, INFINITY)
        )

    def in_transit_gossip(self, destination: Optional[str] = None) -> List[Tuple[str, GossipMessage]]:
        """Gossip messages currently in transit (optionally only those headed
        to *destination*), with their destination replica."""
        messages: List[Tuple[str, GossipMessage]] = []
        for (src, dst), channel in self.gossip_channels.items():
            if destination is not None and dst != destination:
                continue
            for message in channel.contents():
                messages.append((dst, message))
        return messages

    def system_constraints(self) -> Set[Tuple[OperationId, OperationId]]:
        """``sc = (⋂_r lc_r) ⋂ (⋂_r ⋂_{m -> r} mc_r(m))``."""
        op_ids = {x.id for x in self.ops()}
        if not op_ids:
            return set()
        candidate_pairs = {
            (a, b) for a in op_ids for b in op_ids if a != b
        }
        agreed = set(candidate_pairs)
        for replica_id in self.replica_ids:
            agreed &= self.local_constraints(replica_id)
            if not agreed:
                return set()
        for destination, message in self.in_transit_gossip():
            if message.kind == "pull":
                continue  # conveys no knowledge; mc would be exactly lc
            agreed &= self.message_constraints(destination, message)
            if not agreed:
                return set()
        return agreed

    def partial_order(self) -> PartialOrder:
        """``po`` — the relation induced by ``TC(CSC(ops) u sc)`` on ``ops``."""
        operations = self.ops()
        op_ids = {x.id for x in operations}
        raw = set(client_specified_constraints(operations)) | self.system_constraints()
        closure = transitive_closure(raw)
        return PartialOrder(induced_order(closure, op_ids))

    def potential_rept(self, client: str) -> Set[Tuple[OperationDescriptor, Any]]:
        """``potential_rept_c`` — responses en route to *client* for
        operations still waiting.  Stale-response NACKs carry no value and
        can never be recorded in ``rept``, so they are not potential
        responses."""
        frontend = self.frontends[client]
        result: Set[Tuple[OperationDescriptor, Any]] = set()
        for (replica, dest), channel in self.response_channels.items():
            if dest != client:
                continue
            for message in channel.contents():
                if message.operation in frontend.wait and not message.stale:
                    result.add((message.operation, message.value))
        return result

    def stable_everywhere(self) -> Set[OperationDescriptor]:
        """``⋂_r stable_r[r]`` — the operations every replica knows stable,
        on the checkpoint + suffix view: an operation a replica has folded
        into its checkpoint is stable there by construction (compaction only
        ever folds stable-everywhere operations), so stability is never
        *lost* by compacting — which the forward-simulation relation against
        the spec's monotone ``stabilized`` set depends on."""
        stable_sets = [
            replica.stable_here() | set(self.compacted_ops(rid))
            for rid, replica in self.replicas.items()
        ]
        return set.intersection(*stable_sets) if stable_sets else set()

    # ====================================================================== #
    # Scheduling                                                             #
    # ====================================================================== #

    def enabled_actions(self) -> List[Tuple[str, Tuple]]:
        """Every currently enabled non-input action, as ``(kind, args)``
        descriptors usable with :meth:`perform`."""
        actions: List[Tuple[str, Tuple]] = []
        for client, frontend in self.frontends.items():
            for operation in sorted(frontend.wait, key=lambda op: repr(op.id)):
                for replica in self.replica_ids:
                    actions.append(("send_request", (client, replica, operation)))
            for operation, _value in frontend.response_candidates():
                actions.append(("response", (operation,)))
        for (client, replica), channel in self.request_channels.items():
            for message in channel.contents():
                actions.append(("receive_request", (client, replica, message)))
        for (replica, client), channel in self.response_channels.items():
            for message in channel.contents():
                actions.append(("receive_response", (replica, client, message)))
        for (src, dst), channel in self.gossip_channels.items():
            actions.append(("send_gossip", (src, dst)))
            for message in channel.contents():
                actions.append(("receive_gossip", (src, dst, message)))
        for replica_id, replica in self.replicas.items():
            for operation in replica.doable_operations():
                actions.append(("do_it", (replica_id, operation)))
            for operation in replica.ready_responses():
                actions.append(("send_response", (replica_id, operation)))
        return actions

    def perform(self, kind: str, args: Tuple) -> Any:
        """Execute one action descriptor produced by :meth:`enabled_actions`."""
        handler = getattr(self, kind)
        return handler(*args)

    def random_step(self, rng: random.Random, gossip_bias: float = 0.2) -> Optional[Tuple[str, Tuple]]:
        """Perform one randomly chosen enabled action.

        ``send_gossip`` is always enabled, which would swamp the choice; it is
        therefore selected with probability *gossip_bias* and otherwise
        excluded when other work is available.
        """
        actions = self.enabled_actions()
        if not actions:
            return None
        non_gossip = [a for a in actions if a[0] != "send_gossip"]
        if non_gossip and rng.random() > gossip_bias:
            choice = rng.choice(non_gossip)
        else:
            choice = rng.choice(actions)
        self.perform(*choice)
        return choice

    def run_random(self, rng: random.Random, steps: int,
                   step_hook: Optional[Callable[["AlgorithmSystem", Tuple[str, Tuple]], None]] = None) -> int:
        """Run up to *steps* random steps, invoking *step_hook* after each.

        Returns the number of steps actually performed.
        """
        performed = 0
        for _ in range(steps):
            choice = self.random_step(rng)
            if choice is None:
                break
            performed += 1
            if step_hook is not None:
                step_hook(self, choice)
        return performed

    def drain(self, rng: random.Random, max_steps: int = 100000, gossip_rounds: int = 3) -> None:
        """Deliver all traffic and run a few full gossip rounds so that every
        operation becomes stable everywhere (used by tests to reach the
        eventual total order)."""
        for _ in range(gossip_rounds):
            # Relay requests still parked at a front end: ``send_request`` is a
            # separate action from ``request`` and may not have fired yet for
            # recently submitted operations.  Replicas treat retransmits
            # idempotently, so blanket re-sends are safe.
            for client, frontend in self.frontends.items():
                for operation in sorted(frontend.wait, key=lambda op: repr(op.id)):
                    for replica in self.replica_ids:
                        self.send_request(client, replica, operation)
            self._deliver_everything(rng)
            for src in self.replica_ids:
                for dst in self.replica_ids:
                    if src != dst:
                        self.send_gossip(src, dst)
            self._deliver_everything(rng)

    def _deliver_everything(self, rng: random.Random) -> None:
        progressing = True
        steps = 0
        while progressing and steps < 100000:
            progressing = False
            steps += 1
            for action in self.enabled_actions():
                kind = action[0]
                if kind in ("receive_request", "receive_response", "receive_gossip",
                            "do_it", "send_response", "response"):
                    self.perform(*action)
                    progressing = True
                    break

    # ====================================================================== #
    # Snapshots                                                              #
    # ====================================================================== #

    def snapshot(self) -> Dict[str, Any]:
        """A structural snapshot used by the simulation-relation harness."""
        return {
            "requested": set(self.users.requested),
            "frontends": {c: fe.snapshot() for c, fe in self.frontends.items()},
            "replicas": {r: rep.snapshot() for r, rep in self.replicas.items()},
            "request_channels": {
                key: channel.contents() for key, channel in self.request_channels.items()
            },
            "response_channels": {
                key: channel.contents() for key, channel in self.response_channels.items()
            },
            "gossip_channels": {
                key: channel.contents() for key, channel in self.gossip_channels.items()
            },
        }
