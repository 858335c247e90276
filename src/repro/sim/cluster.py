"""A simulated ESDS deployment.

``SimulatedCluster`` instantiates the algorithm's replica and front-end state
machines, connects them through a :class:`~repro.sim.network.SimulatedNetwork`
with the Section 9.1 timing parameters (``df``, ``dg``, gossip period ``g``),
adds a per-operation service time at replicas (so that throughput saturation
and scaling are observable, as in Cheiner's experiments), and drives the
whole thing from a discrete-event loop.

The cluster exposes two usage styles:

* an asynchronous style used by the benchmarks: ``submit`` operations (or use
  :func:`repro.sim.workload.run_workload`), ``run`` the clock, then read the
  metrics;
* a synchronous facade used by the examples and applications: ``execute``
  submits one operation and runs the simulation until its response arrives,
  returning the value — the closest analogue of calling a real service.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithm.checkpoint import CompactionLedger
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.labels import label_min, label_sort_key
from repro.algorithm.messages import GossipMessage, RequestMessage, ResponseMessage
from repro.algorithm.replica import ReplicaCore
from repro.common import (
    INFINITY,
    ConfigurationError,
    OperationId,
    OperationIdGenerator,
    ensure_not_stale,
)
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes.base import Operator, SerialDataType
from repro.sim.events import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.network import NetworkModel, SimulatedNetwork
from repro.spec.guarantees import TraceRecord

ReplicaFactory = Callable[[str, Sequence[str], SerialDataType], ReplicaCore]

#: Marker wrapped around a transfer payload entry tampered in flight by the
#: corruption adversary — any repr-visible change would do; a distinct tag
#: keeps debugging obvious.
CORRUPTION_MARKER = "__corrupted__"


def _tamper_transfer(message):
    """Flip bytes in one checkpoint-transfer chunk (corruption adversary).

    The tampered copy keeps the original digest field, modelling payload
    bits flipped in flight while the digest rides along intact: the
    receiver recomputes the assembled checkpoint's digest and rejects the
    mismatch.  One retained value is replaced when the chunk carries any;
    otherwise the base-state blob of the final chunk is tampered.
    """
    from dataclasses import replace

    if message.values_chunk:
        first = next(iter(message.values_chunk))
        tampered = dict(message.values_chunk)
        tampered[first] = (CORRUPTION_MARKER, tampered[first])
        return replace(message, values_chunk=tampered)
    return replace(message, base_state=(CORRUPTION_MARKER, message.base_state))


def eventual_order_of(cluster) -> List[OperationId]:
    """Identifiers of all requested operations ordered by system-wide
    minimum label (unlabelled operations last, deterministically).

    The compacted stable prefix comes first in its agreed (ledger) order:
    the labels below the frontier are deliberately forgotten, and every
    tracked label exceeds them.

    Duck-typed over any harness exposing ``requested``, ``replicas`` and
    ``compaction_ledger`` — the simulator, the wire harness and the asyncio
    runtime (:class:`repro.net.runtime.NetCluster`) all share this oracle.
    """
    def minlabel(op_id: OperationId):
        best = INFINITY
        for replica in cluster.replicas.values():
            best = label_min(best, replica.label_of(op_id))
        return best

    compacted = cluster.compaction_ledger.ids
    prefix = [x.id for x in cluster.compaction_ledger.prefix]
    labelled = [
        op_id
        for op_id in cluster.requested
        if op_id not in compacted and minlabel(op_id) is not INFINITY
    ]
    labelled.sort(key=lambda op_id: label_sort_key(minlabel(op_id)))
    unlabelled = sorted(
        (
            op_id
            for op_id in cluster.requested
            if op_id not in compacted and minlabel(op_id) is INFINITY
        ),
        key=repr,
    )
    return prefix + labelled + unlabelled


def algorithm_view_of(cluster) -> "AlgorithmSystem":
    """An :class:`~repro.algorithm.system.AlgorithmSystem`-shaped view of a
    quiescent harness, for the Section 7/8 invariant checker and the trace
    oracles.

    The harness keeps in-flight messages inside its transport (scheduled
    events or sockets) rather than explicit channels, so the view models
    every channel as empty — it is faithful exactly when the network is
    quiet.  Shared by the simulator, the wire harness and the asyncio
    runtime (same duck-typed surface as :func:`eventual_order_of`).
    """
    from repro.algorithm.system import AlgorithmSystem
    from repro.spec.users import Users

    view = AlgorithmSystem.__new__(AlgorithmSystem)
    view.data_type = cluster.data_type
    view.replica_ids = cluster.replica_ids
    view.client_ids = cluster.client_ids
    view.users = Users()
    view.users.requested = set(cluster.requested.values())
    view.users.responded = dict(cluster.responded)
    view.frontends = cluster.frontends
    view.replicas = cluster.replicas
    view.request_channels = {}
    view.response_channels = {}
    view.gossip_channels = {}
    view.trace = cluster.trace
    view.compaction_ledger = cluster.compaction_ledger
    return view


def drive_until(
    simulator: Simulator,
    is_done: Callable[[], bool],
    max_time: float,
    max_events: Optional[int] = None,
) -> None:
    """Step *simulator* until *is_done* holds, the queue drains, or the
    time/event budget is exhausted — the one drive loop behind every
    "run until answered" facade (single-cluster and sharded alike)."""
    deadline = simulator.now + max_time
    events = 0
    while not is_done() and simulator.now < deadline:
        if not simulator.step():
            break
        events += 1
        if max_events is not None and events >= max_events:
            break


@dataclass
class SimulationParams:
    """Timing and policy parameters of a simulated deployment.

    ``df``, ``dg`` and ``gossip_period`` are the Section 9.1 quantities; the
    remaining fields model the implementation aspects the paper abstracts
    away but Cheiner's evaluation depends on (processing capacity, front-end
    routing).
    """

    #: Maximum front-end <-> replica message delay (the paper's ``df``).
    df: float = 1.0
    #: Maximum replica <-> replica message delay (the paper's ``dg``).
    dg: float = 1.0
    #: Time between successive gossip sends from a replica (the paper's ``g``).
    gossip_period: float = 2.0
    #: Delay jitter fraction; 0 means deterministic worst-case delays.
    jitter: float = 0.0
    #: Per-message loss probability (safety must be unaffected).
    loss_probability: float = 0.0
    #: Delay multiplier applied during delay-spike fault windows.
    spike_factor: float = 1.0
    #: Time a replica is busy processing one client request.
    service_time: float = 0.0
    #: Time a replica is busy processing one gossip message.
    gossip_processing_time: float = 0.0
    #: Number of replicas each request is sent to (>=1; extras are redundant).
    request_fanout: int = 1
    #: Front-end routing policy: "affinity" (client pinned to one replica),
    #: "round_robin" or "random".
    frontend_policy: str = "affinity"
    #: Stagger the first gossip tick of each replica to avoid lock-step bursts.
    gossip_stagger: bool = True
    #: Track the time at which each operation becomes stable everywhere
    #: (adds bookkeeping cost; needed by experiment E5).
    track_stabilization: bool = False
    #: When set, front ends re-send the request for an unanswered operation
    #: every this-many time units (the repeated ``send_cr`` the paper allows,
    #: used to mask message loss and partitions).
    retransmit_interval: Optional[float] = None
    #: Replica features (the fast core, gossip modes, compaction, and the
    #: simulator-only ``batch_gossip`` / ``compaction_interval``): one
    #: :class:`~repro.config.ReplicaConfig` threads through every harness.
    #: Only a single compaction policy is accepted here; per-shard mappings
    #: resolve at the sharded entry points.
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)

    def __post_init__(self) -> None:
        if self.request_fanout < 1:
            raise ConfigurationError("request_fanout must be at least 1")
        if self.frontend_policy not in ("affinity", "round_robin", "random"):
            raise ConfigurationError(f"unknown frontend policy {self.frontend_policy!r}")
        if self.gossip_period <= 0:
            raise ConfigurationError("gossip_period must be positive")
        self.replica.require_single_policy("SimulationParams")


class SimulatedCluster:
    """A full ESDS deployment under simulated time."""

    def __init__(
        self,
        data_type: SerialDataType,
        num_replicas: int = 3,
        client_ids: Sequence[str] = ("c0",),
        params: Optional[SimulationParams] = None,
        replica_factory: Optional[ReplicaFactory] = None,
        seed: int = 0,
        simulator: Optional[Simulator] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if num_replicas < 2:
            raise ConfigurationError("the algorithm assumes at least two replicas")
        self.data_type = data_type
        self.params = params or SimulationParams()
        # A shared simulator (and optionally a shared or derived RNG) lets
        # several clusters — the shards of a ShardedCluster — run on one
        # seeded event loop.
        self.rng = rng if rng is not None else random.Random(seed)
        self.simulator = simulator if simulator is not None else Simulator()
        self.network = SimulatedNetwork(
            NetworkModel(
                df=self.params.df,
                dg=self.params.dg,
                jitter=self.params.jitter,
                loss_probability=self.params.loss_probability,
                spike_factor=self.params.spike_factor,
            ),
            self.rng,
        )

        self.replica_ids: Tuple[str, ...] = tuple(f"r{i}" for i in range(num_replicas))
        replica_config = self.params.replica
        factory = replica_factory or replica_config.core_class()
        self.replicas: Dict[str, ReplicaCore] = {
            rid: factory(rid, self.replica_ids, data_type) for rid in self.replica_ids
        }
        #: The agreed compacted stable prefix across the whole cluster (the
        #: replicas themselves forget the order; witnesses and audits need it).
        self.compaction_ledger = CompactionLedger()
        for rid, core in self.replicas.items():
            replica_config.configure_core(core)
            core.on_compact = self._compaction_recorder(rid)
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.frontends: Dict[str, FrontEndCore] = {
            cid: FrontEndCore(cid, self.replica_ids) for cid in self.client_ids
        }
        self.id_generators: Dict[str, OperationIdGenerator] = {
            cid: OperationIdGenerator(cid) for cid in self.client_ids
        }

        self.metrics = MetricsCollector()
        self.trace = TraceRecord()
        #: Values delivered to clients, by operation identifier.
        self.responded: Dict[OperationId, Any] = {}
        #: Operations declared unanswerable (stale-value NACK from every
        #: replica), with the failure reason.
        self.failed: Dict[OperationId, str] = {}
        self.requested: Dict[OperationId, OperationDescriptor] = {}

        self._crashed: Set[str] = set()
        #: Submitted-but-unanswered operation identifiers (kept incrementally
        #: in sync with ``requested`` / ``responded``).
        self._unanswered: Set[OperationId] = set()
        self._replica_busy_until: Dict[str, float] = {rid: 0.0 for rid in self.replica_ids}
        self._round_robin_index = 0
        self._affinity: Dict[str, str] = {
            cid: self.replica_ids[i % len(self.replica_ids)]
            for i, cid in enumerate(self.client_ids)
        }
        self._gossip_started = False
        #: Set by :meth:`stop` when this cluster is retired (a drained shard
        #: after a live reshard): timers stop rescheduling themselves.
        self._stopped = False
        self._unstable: Set[OperationId] = set()
        #: Batched-gossip fast path: per-replica buffer of same-instant
        #: arrivals and the instant a flush is already scheduled for.
        self._gossip_inbox: Dict[str, List[GossipMessage]] = {
            rid: [] for rid in self.replica_ids
        }
        self._gossip_flush_at: Dict[str, float] = {}
        #: Observed gossip timestamp lag (receiver local clock minus the
        #: sender's ``sent_at`` stamp) — ``(min, max)`` over all deliveries.
        #: Under the clock-skew adversary this widens to roughly the skew
        #: spread; it is never read by the algorithm (observability only).
        self.gossip_lag_bounds: Optional[Tuple[float, float]] = None

    # ===================================================================== #
    # Lifecycle                                                             #
    # ===================================================================== #

    def start(self) -> None:
        """Start the gossip (and compaction) timers.  Called automatically on
        first use."""
        if self._gossip_started:
            return
        self._gossip_started = True
        for index, rid in enumerate(self.replica_ids):
            offset = 0.0
            if self.params.gossip_stagger and len(self.replica_ids) > 1:
                offset = (index / len(self.replica_ids)) * self.params.gossip_period
            self.simulator.schedule(offset + self.params.gossip_period, self._gossip_tick(rid))
        if self.params.replica.compaction_interval is not None:
            for rid in self.replica_ids:
                self.simulator.schedule(
                    self.params.replica.compaction_interval, self._compaction_tick(rid)
                )
        self.metrics.started_at = self.simulator.now

    def _compaction_recorder(self, replica: str):
        """Per-replica ``on_compact`` hook: ledger bookkeeping plus a state
        sample right after the fold (the memory low-water mark)."""
        def record(batch, checkpoint) -> None:
            self.compaction_ledger.record(batch, checkpoint)
            self.metrics.record_tracked_ops(
                replica, self.replicas[replica].tracked_op_count()
            )
        return record

    def _compaction_tick(self, replica: str) -> Callable[[], None]:
        def tick() -> None:
            if self._stopped:
                return
            if replica not in self._crashed:
                self.replicas[replica].maybe_compact(force=True)
            self.simulator.schedule(self.params.replica.compaction_interval, tick)

        return tick

    def stop(self) -> None:
        """Permanently silence this cluster's timers (gossip, forced
        compaction, injection retries).  Used when a drained shard retires
        after a live reshard: its history stays readable — ``responded``,
        ``eventual_order`` and the trace remain valid — but it generates no
        further events.  Only safe once the cluster is idle and converged;
        the reshard coordinator checks both before calling."""
        self._stopped = True

    @property
    def compacted_prefix(self) -> List[OperationDescriptor]:
        """The cluster-wide compacted stable prefix, in the agreed order."""
        return self.compaction_ledger.prefix

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.simulator.now

    def run(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance simulated time by *duration*."""
        self.start()
        self.simulator.run_until(self.simulator.now + duration, max_events)
        self.metrics.finished_at = self.simulator.now

    def run_until_idle(self, max_time: float = 10_000.0, max_events: int = 5_000_000) -> None:
        """Run until every submitted operation has been answered (or the time
        budget is exhausted — e.g. when a replica stays crashed and strict
        operations cannot complete)."""
        self.start()
        drive_until(
            self.simulator, lambda: not self.outstanding_operations(), max_time, max_events
        )
        self.metrics.finished_at = self.simulator.now

    def outstanding_operations(self) -> int:
        """Number of submitted operations that have not been answered yet.

        Tracked incrementally — ``run_until_idle`` consults this after every
        event, so recomputing the set difference there would cost
        O(events x operations).
        """
        return len(self._unanswered)

    # ===================================================================== #
    # Client interface                                                      #
    # ===================================================================== #

    def make_operation(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
    ) -> OperationDescriptor:
        """Build a fresh, well-formed operation descriptor for *client*."""
        if client not in self.id_generators:
            raise ConfigurationError(f"unknown client {client!r}")
        self.data_type.check_operator(operator)
        prev_ids = frozenset(prev)
        # Membership probes against the dict, not a per-call set() of all
        # identifiers ever requested (which made submission O(history)).
        unknown = {p for p in prev_ids if p not in self.requested}
        if unknown:
            raise ConfigurationError(
                f"prev references operations never requested: {sorted(map(str, unknown))}"
            )
        return make_operation(operator, self.id_generators[client].fresh(), prev_ids, strict)

    def submit(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        at: Optional[float] = None,
    ) -> OperationDescriptor:
        """Submit an operation at simulation time *at* (default: now)."""
        operation = self.make_operation(client, operator, prev, strict)
        return self._schedule_operation(operation, at)

    def ensure_client(self, client_id: str) -> None:
        """Admit a client identity after construction (idempotent).

        Live resharding needs this: migrated operations keep their original
        ``client@shard`` minting identity, so the destination cluster hosts
        a ghost front end for every such foreign client, and post-flip
        traffic from relocated keys arrives under identities the destination
        was not built with."""
        if client_id in self.frontends:
            return
        self.client_ids = self.client_ids + (client_id,)
        self.frontends[client_id] = FrontEndCore(client_id, self.replica_ids)
        self.id_generators[client_id] = OperationIdGenerator(client_id)
        self._affinity[client_id] = self.replica_ids[
            len(self._affinity) % len(self.replica_ids)
        ]

    def submit_operation(
        self,
        operation: OperationDescriptor,
        at: Optional[float] = None,
        allow_unknown_prev: Iterable[OperationId] = (),
    ) -> OperationDescriptor:
        """Submit a pre-built descriptor (used by the sharded service layer,
        which mints identifiers itself so they stay unique across shards).

        Validation lives here — :meth:`submit` goes through
        :meth:`make_operation` instead, which performs the same checks while
        constructing the descriptor.

        ``allow_unknown_prev`` admits ``prev`` identifiers not (yet) in
        ``requested``: during a reshard handoff window, post-flip operations
        on moving keys carry barrier constraints naming migrated operations
        whose chain injection is still in flight.  Replicas hold such an
        operation pending until the chain arrives — that wait is the handoff
        stall the E12 benchmark measures."""
        client = operation.id.client
        if client not in self.frontends:
            raise ConfigurationError(f"unknown client {client!r}")
        self.data_type.check_operator(operation.op)
        if operation.id in self.requested:
            raise ConfigurationError(f"operation identifier {operation.id} reused")
        allowed = (
            allow_unknown_prev
            if isinstance(allow_unknown_prev, (set, frozenset))
            else frozenset(allow_unknown_prev)
        )
        unknown = {
            p for p in operation.prev if p not in self.requested and p not in allowed
        }
        if unknown:
            raise ConfigurationError(
                f"prev references operations never requested: {sorted(map(str, unknown))}"
            )
        return self._schedule_operation(operation, at)

    def inject_operation(self, operation: OperationDescriptor) -> OperationDescriptor:
        """Deliver a migrated operation into this cluster as an ordinary
        request, immediately and to *every* live replica.

        The reshard coordinator injects verified slice chains through here.
        Unlike :meth:`submit_operation`, injection broadcasts (migration
        progress must not hinge on one affinity replica's health) and runs
        its own retry loop regardless of ``retransmit_interval`` — the chain
        must land even in deployments that disable client retransmits.
        Chains are injected in order, so the strict prev check holds link by
        link."""
        self.ensure_client(operation.id.client)
        if operation.id in self.requested:
            raise ConfigurationError(f"operation identifier {operation.id} reused")
        unknown = {p for p in operation.prev if p not in self.requested}
        if unknown:
            raise ConfigurationError(
                f"injected chain out of order; unknown prev: {sorted(map(str, unknown))}"
            )
        self.start()
        self.requested[operation.id] = operation
        self._unanswered.add(operation.id)
        self._unstable.add(operation.id)
        self.frontends[operation.id.client].request(operation)
        self.metrics.record_request(operation, self.simulator.now)
        self.trace.record_request(operation)
        self._broadcast_injected(operation)
        return operation

    def _broadcast_injected(self, operation: OperationDescriptor) -> None:
        """Send an injected operation to all live replicas; reschedules
        itself until the operation is answered (or the cluster retires)."""
        if (
            self._stopped
            or operation.id in self.responded
            or operation.id in self.failed
        ):
            return
        client = operation.id.client
        for rid in self.replica_ids:
            if rid not in self._crashed:
                self._send_request(client, rid, operation)
        retry = max(2 * self.params.gossip_period, 4 * self.params.df)
        self.simulator.schedule(retry, lambda: self._broadcast_injected(operation))

    def _schedule_operation(
        self, operation: OperationDescriptor, at: Optional[float]
    ) -> OperationDescriptor:
        self.start()
        # Validate the submission time BEFORE touching any bookkeeping: a
        # rejected submit must not leave a phantom operation behind in
        # requested/_unanswered (it would count as outstanding forever).
        when = self.simulator.now if at is None else at
        if when < self.simulator.now:
            raise ConfigurationError(
                f"cannot submit {operation.id} in the past "
                f"(at={when}, now={self.simulator.now})"
            )
        self.requested[operation.id] = operation
        self._unanswered.add(operation.id)
        self._unstable.add(operation.id)
        self.simulator.schedule_at(when, lambda op=operation: self._on_request(op))
        return operation

    def execute(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        max_time: float = 10_000.0,
    ) -> Tuple[OperationDescriptor, Any]:
        """Synchronous facade: submit, run until answered, return the value."""
        operation = self.submit(client, operator, prev, strict)
        drive_until(self.simulator, lambda: operation.id in self.responded, max_time)
        if operation.id not in self.responded:
            raise RuntimeError(
                f"operation {operation.id} received no response within {max_time} time units"
            )
        return operation, self.responded[operation.id]

    def value_of(self, operation: OperationDescriptor) -> Any:
        """The value returned to the client for *operation* (KeyError if
        unanswered, :class:`~repro.common.StaleValueError` if every replica
        NACKed the retransmit because its value aged out)."""
        ensure_not_stale(self.failed, operation.id)
        return self.responded[operation.id]

    # ===================================================================== #
    # Internal event handlers                                               #
    # ===================================================================== #

    def _choose_replicas(self, client: str) -> List[str]:
        alive = [rid for rid in self.replica_ids if rid not in self._crashed]
        pool = alive or list(self.replica_ids)
        policy = self.params.frontend_policy
        if policy == "affinity":
            primary = self._affinity[client]
            if primary not in pool:
                primary = pool[0]
            ordered = [primary] + [rid for rid in pool if rid != primary]
        elif policy == "round_robin":
            start = self._round_robin_index % len(pool)
            self._round_robin_index += 1
            ordered = pool[start:] + pool[:start]
        else:  # random
            ordered = list(pool)
            self.rng.shuffle(ordered)
        return ordered[: self.params.request_fanout]

    def _on_request(self, operation: OperationDescriptor) -> None:
        client = operation.id.client
        frontend = self.frontends[client]
        frontend.request(operation)
        self.metrics.record_request(operation, self.simulator.now)
        self.trace.record_request(operation)
        for rid in self._choose_replicas(client):
            self._send_request(client, rid, operation)
        if self.params.retransmit_interval is not None:
            self.simulator.schedule(
                self.params.retransmit_interval, lambda: self._retransmit(operation)
            )

    def _retransmit(self, operation: OperationDescriptor) -> None:
        """Re-send the request for a still-unanswered operation (Fig. 6 allows
        the front end to send a pending request repeatedly).

        A stale-value NACK doubles as a redirect signal: once some replica
        has NACKed, retransmits go to the replicas that have *not* NACKed
        yet — under sticky routing (the default ``affinity`` policy) the
        primary would otherwise be retried forever and the all-replicas
        failure verdict could never accumulate.  A failed operation (NACK
        from every replica) stops retransmitting: no replica can ever
        answer it anew."""
        if operation.id in self.responded or operation.id in self.failed:
            return
        client = operation.id.client
        targets = self._choose_replicas(client)
        nacked = self.frontends[client].nacked.get(operation.id, ())
        if nacked:
            alive = [rid for rid in self.replica_ids if rid not in self._crashed]
            remaining = [rid for rid in alive if rid not in nacked]
            targets = remaining or targets
        for rid in targets:
            self._send_request(client, rid, operation)
        self.simulator.schedule(
            self.params.retransmit_interval, lambda: self._retransmit(operation)
        )

    def _transit(self, kind: str, message):
        """Hook applied to every message between send and delivery.

        The base simulator passes objects through untouched;
        :class:`repro.net.wire.WireCluster` overrides this to push each
        message through the binary codec (encode -> frame bytes -> decode),
        measuring real bytes on the wire without perturbing the schedule.
        """
        return message

    def _send_request(self, client: str, replica: str, operation: OperationDescriptor) -> None:
        message = self.frontends[client].make_request_message(operation)
        if self.network.should_drop("request", client, replica):
            return
        self.network.record_sent("request")
        message = self._transit("request", message)
        delay = self.network.delay_for("request", self.simulator.now, client, replica)
        self.simulator.schedule(delay, lambda: self._deliver_request(replica, message))
        dup = self.network.maybe_duplicate("request", self.simulator.now, client, replica)
        if dup is not None:
            self.simulator.schedule(dup, lambda: self._deliver_request(replica, message))

    def _deliver_request(self, replica: str, message: RequestMessage) -> None:
        if replica in self._crashed:
            return
        start = max(self.simulator.now, self._replica_busy_until[replica])
        finish = start + self.params.service_time
        self._replica_busy_until[replica] = finish
        if finish <= self.simulator.now:
            self._process_request(replica, message)
        else:
            self.simulator.schedule_at(finish, lambda: self._process_request(replica, message))

    def _process_request(self, replica: str, message: RequestMessage) -> None:
        if replica in self._crashed:
            return
        core = self.replicas[replica]
        core.receive_request(message)
        for operation in core.take_stale_nacks():
            self._send_response_message(
                replica,
                ResponseMessage(operation=operation, value=None, stale=True, sender=replica),
            )
        core.do_all_ready()
        self._try_respond(replica)

    def _try_respond(self, replica: str) -> None:
        core = self.replicas[replica]
        for operation in core.ready_responses():
            self._send_response_message(replica, core.make_response(operation))

    def _send_response_message(self, replica: str, message: ResponseMessage) -> None:
        client = message.operation.id.client
        if self.network.should_drop("response", replica, client):
            return
        self.network.record_sent("response")
        message = self._transit("response", message)
        delay = self.network.delay_for("response", self.simulator.now, replica, client)
        self.simulator.schedule(delay, lambda: self._deliver_response(client, message))
        dup = self.network.maybe_duplicate("response", self.simulator.now, replica, client)
        if dup is not None:
            self.simulator.schedule(dup, lambda: self._deliver_response(client, message))

    def _deliver_response(self, client: str, message: ResponseMessage) -> None:
        frontend = self.frontends[client]
        if not frontend.receive_response(message):
            # A stale-response NACK may have just tipped the operation into
            # permanent failure (every replica's retained value aged out):
            # surface it and stop counting the operation as outstanding, or
            # run_until_idle would wait for an answer that can never come.
            op_id = message.operation.id
            if message.stale and op_id in frontend.failed and op_id not in self.failed:
                self.failed[op_id] = frontend.failed[op_id]
                self._unanswered.discard(op_id)
            return
        value = frontend.respond(message.operation)
        self.responded[message.operation.id] = value
        self._unanswered.discard(message.operation.id)
        # A late genuine value resurrects a prematurely failed operation
        # (the response outran the NACKs on the unordered network).
        self.failed.pop(message.operation.id, None)
        self.metrics.record_response(message.operation, value, self.simulator.now)
        self.trace.record_response(message.operation, value)

    # -- gossip ------------------------------------------------------------------

    def _gossip_tick(self, replica: str) -> Callable[[], None]:
        def tick() -> None:
            if self._stopped:
                return
            if replica not in self._crashed:
                for destination in self.replica_ids:
                    if destination == replica:
                        continue
                    self._send_gossip(replica, destination)
                self.metrics.record_tracked_ops(
                    replica, self.replicas[replica].tracked_op_count()
                )
            self.simulator.schedule(self.params.gossip_period, tick)

        return tick

    def _send_gossip(self, source: str, destination: str) -> None:
        if source in self._crashed:
            return
        # Decide loss before building the message: a dropped send must not
        # consume a delta-gossip seqno, or the receiver's cumulative-ack
        # frontier would stall on the gap until the next full-state fallback.
        if self.network.should_drop("gossip", source, destination):
            return
        message = self.replicas[source].make_gossip(destination)
        # Stamped with the sender's *local* clock: under the clock-skew
        # adversary this diverges from simulated time — observability only,
        # the algorithm never reads it (timestamps are not load-bearing).
        message.sent_at = self.network.local_clock(source, self.simulator.now)
        self.network.record_sent("gossip", payload_size=message.size_estimate())
        message = self._transit("gossip", message)
        delay = self.network.delay_for("gossip", self.simulator.now, source, destination)
        self.simulator.schedule(delay, lambda: self._deliver_gossip(destination, message))
        # A duplicated delivery reuses the *same* message object: building a
        # second one via make_gossip would consume a fresh delta seqno and
        # turn channel duplication into distinct stream entries.
        dup = self.network.maybe_duplicate("gossip", self.simulator.now, source, destination)
        if dup is not None:
            self.simulator.schedule(dup, lambda: self._deliver_gossip(destination, message))

    def _deliver_gossip(self, destination: str, message: GossipMessage) -> None:
        if destination in self._crashed:
            return
        if message.sent_at is not None:
            lag = self.network.local_clock(destination, self.simulator.now) - message.sent_at
            if self.gossip_lag_bounds is None:
                self.gossip_lag_bounds = (lag, lag)
            else:
                lo, hi = self.gossip_lag_bounds
                self.gossip_lag_bounds = (min(lo, lag), max(hi, lag))
        if self.params.replica.batch_gossip:
            # Fast path: coalesce every arrival at this instant and process
            # the batch once.  Same-instant events run FIFO, so the flush
            # scheduled at zero delay runs after the remaining deliveries of
            # this instant have been buffered.
            self._gossip_inbox[destination].append(message)
            if self._gossip_flush_at.get(destination) != self.simulator.now:
                self._gossip_flush_at[destination] = self.simulator.now
                self.simulator.schedule(0.0, lambda: self._flush_gossip(destination))
            return
        if self.params.gossip_processing_time > 0:
            start = max(self.simulator.now, self._replica_busy_until[destination])
            finish = start + self.params.gossip_processing_time
            self._replica_busy_until[destination] = finish
            if finish > self.simulator.now:
                self.simulator.schedule_at(
                    finish, lambda: self._process_gossip(destination, message)
                )
                return
        self._process_gossip(destination, message)

    def _flush_gossip(self, destination: str) -> None:
        """Merge every gossip message buffered for *destination*, then run the
        post-merge work once for the whole batch."""
        self._gossip_flush_at.pop(destination, None)
        batch = self._gossip_inbox[destination]
        self._gossip_inbox[destination] = []
        if not batch or destination in self._crashed:
            return
        if self.params.gossip_processing_time > 0:
            # The merge cost is still charged per message; only the
            # post-merge sweep is amortized across the batch.
            start = max(self.simulator.now, self._replica_busy_until[destination])
            finish = start + self.params.gossip_processing_time * len(batch)
            self._replica_busy_until[destination] = finish
            if finish > self.simulator.now:
                self.simulator.schedule_at(
                    finish, lambda: self._process_gossip_batch(destination, batch)
                )
                return
        self._process_gossip_batch(destination, batch)

    def _process_gossip_batch(self, destination: str, batch: List[GossipMessage]) -> None:
        if destination in self._crashed:
            return
        core = self.replicas[destination]
        # One call for the whole coalesced batch (a sequential per-message
        # merge); the post-merge sweep below then runs once per batch.
        core.receive_gossip_batch(batch)
        for pull in core.take_pending_pulls():
            self._send_pull(destination, pull)
        core.do_all_ready()
        self._try_respond(destination)
        if self.params.track_stabilization:
            self._update_stabilization()

    def _process_gossip(self, destination: str, message: GossipMessage) -> None:
        self._process_gossip_batch(destination, [message])

    # -- advert/pull checkpoint catch-up -----------------------------------------

    def _send_pull(self, source: str, message) -> None:
        """Send a pull request over the gossip fabric (same delay bound
        ``dg``, same loss policy; a dropped pull is retried off the next
        advert that still shows the requester behind)."""
        if self.network.should_drop("pull", source, message.target):
            return
        self.network.record_sent("pull")
        message = self._transit("pull", message)
        delay = self.network.delay_for("pull", self.simulator.now, source, message.target)
        self.simulator.schedule(delay, lambda: self._deliver_pull(message.target, message))
        dup = self.network.maybe_duplicate("pull", self.simulator.now, source, message.target)
        if dup is not None:
            self.simulator.schedule(dup, lambda: self._deliver_pull(message.target, message))

    def _deliver_pull(self, replica: str, message) -> None:
        if replica in self._crashed:
            return
        for transfer in self.replicas[replica].receive_pull_request(message):
            self._send_transfer(replica, transfer)

    def _send_transfer(self, source: str, message) -> None:
        if self.network.should_drop("transfer", source, message.requester):
            return
        self.network.record_sent("transfer", payload_size=message.size_estimate())
        if self.network.should_corrupt_transfer(self.simulator.now):
            message = _tamper_transfer(message)
        # Transit after tampering: the corrupted payload is what crosses the
        # wire, so the codec must carry it faithfully for the receiver's
        # digest check to reject it.
        message = self._transit("transfer", message)
        delay = self.network.delay_for(
            "transfer", self.simulator.now, source, message.requester
        )
        self.simulator.schedule(
            delay, lambda: self._deliver_transfer(message.requester, message)
        )
        dup = self.network.maybe_duplicate(
            "transfer", self.simulator.now, source, message.requester
        )
        if dup is not None:
            self.simulator.schedule(
                dup, lambda: self._deliver_transfer(message.requester, message)
            )

    def _deliver_transfer(self, replica: str, message) -> None:
        if replica in self._crashed:
            return
        core = self.replicas[replica]
        core.receive_transfer(message)
        # A completed transfer can unblock do_it chains (prev chains through
        # the adopted prefix) and pending responses.
        core.do_all_ready()
        self._try_respond(replica)
        if self.params.track_stabilization:
            self._update_stabilization()

    def _update_stabilization(self) -> None:
        if not self._unstable:
            return
        newly_stable: List[OperationId] = []
        for op_id in self._unstable:
            operation = self.requested[op_id]
            if all(rep.knows_stable(operation) for rep in self.replicas.values()):
                newly_stable.append(op_id)
        for op_id in newly_stable:
            self._unstable.discard(op_id)
            self.metrics.record_stabilization(op_id, self.simulator.now)

    # ===================================================================== #
    # Fault injection hooks (used by repro.sim.faults)                      #
    # ===================================================================== #

    def crash_replica(self, replica: str, volatile_memory: bool = True) -> None:
        """Crash a replica; its state is lost when memory is volatile except
        for the locally generated labels kept in stable storage."""
        self._crashed.add(replica)
        self.replicas[replica].crash(volatile_memory=volatile_memory)

    def recover_replica(self, replica: str) -> None:
        """Restart a crashed replica: reload stable storage and ask every
        other replica for fresh gossip (the Section 9.3 recovery protocol)."""
        self._crashed.discard(replica)
        self.replicas[replica].recover_from_stable_storage()
        for other in self.replica_ids:
            if other != replica and other not in self._crashed:
                self._send_gossip(other, replica)
                self._send_gossip(replica, other)

    # ===================================================================== #
    # Derived views                                                         #
    # ===================================================================== #

    def minlabel(self, op_id: OperationId):
        best = INFINITY
        for replica in self.replicas.values():
            best = label_min(best, replica.label_of(op_id))
        return best

    def eventual_order(self) -> List[OperationId]:
        """See :func:`eventual_order_of` (shared across harnesses)."""
        return eventual_order_of(self)

    def algorithm_view(self) -> "AlgorithmSystem":
        """See :func:`algorithm_view_of` (shared across harnesses).

        Faithful exactly when the network is quiet (after
        :meth:`run_until_idle` plus enough gossip rounds for convergence),
        which is when the scenario fuzzer samples it.
        """
        return algorithm_view_of(self)

    def fully_converged(self) -> bool:
        """Has every requested operation become stable at every replica?
        (A compacted operation is stable by construction.)

        Used by tests to decide when the :meth:`algorithm_view` is faithful:
        at convergence no gossip in transit can carry new information.
        """
        requested = set(self.requested.values())
        return all(
            all(replica.knows_stable(op) for op in requested)
            for replica in self.replicas.values()
        )

    def total_value_applications(self) -> int:
        """Total operator applications performed by replicas when computing
        response values (the recomputation cost the Section 10 optimizations
        reduce)."""
        return sum(rep.stats.value_applications for rep in self.replicas.values())

    def total_applications(self) -> int:
        """All operator applications (value computation plus memoization)."""
        return sum(rep.stats.total_applications() for rep in self.replicas.values())
