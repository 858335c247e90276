"""The asyncio replica runtime: real concurrency, real bytes, same cores.

One asyncio task group per replica speaks the binary codec
(:mod:`repro.net.codec`) over a duplex stream transport, driving the
*unchanged* :class:`~repro.algorithm.replica.ReplicaCore` /
:class:`~repro.algorithm.fastcore.FastReplicaCore` state machines — the same
variant interface the action-level driver and the seeded simulator use, so
this is the third harness over one algorithm.

Transports
    ``tcp``
        every replica listens on a loopback socket (OS-assigned port);
        replicas dial one outgoing connection per peer, clients dial one
        duplex connection per replica (requests out, responses back).
    ``memory``
        the same stream discipline over in-process pipes built from
        ``asyncio.StreamReader`` pairs — no OS sockets, deterministic enough
        for CI, and a crashed endpoint breaks its peers' writers exactly
        like a reset socket would.

Framing and flow control
    Every frame is length-prefixed (4-byte big-endian).  Each sender->peer
    link owns a **bounded** send queue drained by one writer task, which
    **coalesces** everything currently queued into a single frame (one
    magic/table overhead amortized over the batch).  A full queue means the
    peer is slow: clients and the pull/transfer plane block on ``put``
    (backpressure), while the gossip tick *skips* the peer for that round
    before building a message — deliberately, since a skipped gossip is
    indistinguishable from a lost one and, under delta gossip, building a
    message that is then dropped would burn a stream seqno and stall the
    receiver's cumulative ack.

Loss tolerance
    Connections (re)connect lazily; a write onto a broken link loses the
    batch, and nothing retransmits at the transport level.  That is the
    algorithm's own fault model — gossip re-sends knowledge every period,
    pulls are re-queued off the next advert, and the front end retries
    unanswered requests — so replica crash/recovery needs no connection
    handshake beyond re-dialing.

The cluster exposes the same oracle surface as the simulator (``requested``
/ ``responded`` / ``trace`` / ``replicas`` / ``compaction_ledger``), so
:func:`repro.sim.cluster.algorithm_view_of` and
:func:`~repro.sim.cluster.eventual_order_of` — and with them the Section 7/8
invariant checker and the serializability oracles — run unmodified against a
quiesced network deployment.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from dataclasses import InitVar, dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithm.checkpoint import CompactionLedger, CompactionPolicy
from repro.config import ReplicaConfig
from repro.algorithm.batchcore import core_factory
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.messages import ResponseMessage
from repro.algorithm.replica import ReplicaCore
from repro.common import (
    ConfigurationError,
    EsdsError,
    OperationId,
    OperationIdGenerator,
)
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes.base import Operator, SerialDataType
from repro.net.codec import decode_frame, encode_frame_detailed
from repro.spec.guarantees import TraceRecord

#: Upper bound on one frame (a defensive limit, far above any real frame).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class OperationFailed(EsdsError):
    """Every replica NACKed the operation (its retained value aged out)."""


@dataclass
class NetParams:
    """Policy knobs of a network deployment.  The gossip-mode flags mirror
    :class:`~repro.sim.cluster.SimulationParams` (same core configuration
    calls); the transport knobs are runtime-specific."""

    #: Seconds between gossip rounds at each replica.
    gossip_period: float = 0.05
    #: Ack-based destination deltas instead of full state (Section 10.4).
    delta_gossip: bool = False
    #: With delta gossip, full-state fallback every this-many sends per peer.
    full_state_interval: int = 8
    #: Advert/pull checkpoint gossip (bounded steady-state payload).
    advert_gossip: bool = False
    #: With advert gossip, max retained values per transfer chunk.
    checkpoint_chunk: Optional[int] = None
    #: Stability-driven checkpoint compaction policy; ``None`` disables.
    compaction: Optional[CompactionPolicy] = None
    #: Suffix-only response replay at the replicas.
    incremental_replay: bool = False
    #: Use :class:`~repro.algorithm.fastcore.FastReplicaCore`.
    fast_core: bool = False
    #: Use the struct-of-arrays batch replay kernel
    #: (:class:`~repro.algorithm.batchcore.BatchReplicaCore`) on top of the
    #: fast core (requires ``fast_core=True``); per-frame gossip batches
    #: merge through ``receive_gossip_batch``.
    batch_replay: bool = False
    #: Bounded per-peer send queue length (messages). Full queue = slow peer:
    #: senders block (clients, pulls) or skip the round (gossip).
    send_queue_limit: int = 64
    #: Max messages coalesced into one frame per writer wakeup.
    coalesce_limit: int = 64
    #: Front ends re-send an unanswered request after this many seconds
    #: (redirecting away from replicas that NACKed, like the simulator).
    request_retry: float = 1.0
    #: Delay before a broken link re-dials its peer.
    reconnect_delay: float = 0.05
    #: Unified replica feature configuration: when given, its replica-level
    #: fields replace the loose per-feature fields above, so one
    #: :class:`~repro.config.ReplicaConfig` threads through every harness.
    #: The simulator-only fields (``batch_gossip``, ``compaction_interval``)
    #: are ignored here, as documented on :mod:`repro.config`.
    replica: InitVar[Optional[ReplicaConfig]] = None

    def __post_init__(self, replica: Optional[ReplicaConfig] = None) -> None:
        if replica is not None:
            self.fast_core = replica.fast_core
            self.batch_replay = replica.batch_replay
            self.delta_gossip = replica.delta_gossip
            self.full_state_interval = replica.full_state_interval
            self.incremental_replay = replica.incremental_replay
            self.compaction = replica.require_single_policy("NetParams")
            self.advert_gossip = replica.advert_gossip
            self.checkpoint_chunk = replica.checkpoint_chunk
        if self.gossip_period <= 0:
            raise ConfigurationError("gossip_period must be positive")
        if self.send_queue_limit < 1:
            raise ConfigurationError("send_queue_limit must be at least 1")
        if self.coalesce_limit < 1:
            raise ConfigurationError("coalesce_limit must be at least 1")
        if self.request_retry <= 0:
            raise ConfigurationError("request_retry must be positive")
        if self.full_state_interval < 1:
            raise ConfigurationError("full_state_interval must be at least 1")

    @property
    def replica_config(self) -> ReplicaConfig:
        """The replica-level slice of these parameters as the unified
        :class:`~repro.config.ReplicaConfig` (the loose fields stay the
        storage; this is the one object the runtime configures cores from)."""
        return ReplicaConfig(
            fast_core=self.fast_core,
            batch_replay=self.batch_replay,
            delta_gossip=self.delta_gossip,
            full_state_interval=self.full_state_interval,
            incremental_replay=self.incremental_replay,
            compaction=self.compaction,
            advert_gossip=self.advert_gossip,
            checkpoint_chunk=self.checkpoint_chunk,
        )


@dataclass
class NetStats:
    """Actual traffic accounting.  ``payload_bytes_by_kind`` attributes each
    message's encoded payload to its kind; ``bytes_sent`` additionally
    counts the shared frame overhead (magic, table, length prefixes)."""

    KINDS = ("request", "response", "gossip", "pull", "transfer")

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0
    messages_by_kind: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in NetStats.KINDS}
    )
    payload_bytes_by_kind: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in NetStats.KINDS}
    )
    #: Gossip rounds skipped because a peer's send queue was full.
    gossip_skipped: int = 0
    #: Responses dropped because their client has no connection to the
    #: answering replica (the front end's retry recovers them).
    responses_unrouted: int = 0
    #: Messages of send-link batches lost because the peer could not be
    #: dialed, and because writing the batch's frame failed.
    link_dial_lost: int = 0
    link_write_lost: int = 0
    #: Client requests lost because the replica could not be reached, and
    #: because writing the request's frame failed.
    requests_unreachable: int = 0
    requests_write_lost: int = 0

    def record_frame(
        self, batch: Sequence[Tuple[str, Any]], frame_len: int, sizes: Sequence[int]
    ) -> None:
        self.frames_sent += 1
        self.bytes_sent += frame_len + _LEN.size
        for (kind, _), size in zip(batch, sizes):
            self.messages_by_kind[kind] += 1
            self.payload_bytes_by_kind[kind] += size


# --------------------------------------------------------------------------- #
# Stream helpers (shared by both transports)                                  #
# --------------------------------------------------------------------------- #

async def read_frame(reader) -> Optional[bytes]:
    """Read one length-prefixed frame; ``None`` on EOF / reset."""
    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise EsdsError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} limit")
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None


async def write_frame(writer, frame: bytes) -> None:
    """Write one length-prefixed frame."""
    writer.write(_LEN.pack(len(frame)) + frame)
    await writer.drain()


async def _read_hello(reader) -> Optional[str]:
    frame = await read_frame(reader)
    if frame is None:
        return None
    return frame.decode("utf-8")


async def _write_hello(writer, name: str) -> None:
    await write_frame(writer, name.encode("utf-8"))


# --------------------------------------------------------------------------- #
# In-process transport: StreamReader pairs wired back to back                 #
# --------------------------------------------------------------------------- #

class _MemoryWriter:
    """Write end of an in-process pipe.  Closing it EOFs the peer's reader
    and *breaks* the peer's write end, so a crashed endpoint surfaces to its
    peers as a reset connection — same failure surface as a socket."""

    def __init__(self, peer_reader: asyncio.StreamReader) -> None:
        self._peer_reader = peer_reader
        self._peer_writer: Optional["_MemoryWriter"] = None
        self._closed = False
        self._broken = False

    def write(self, data: bytes) -> None:
        if self._closed or self._broken:
            raise ConnectionResetError("in-process peer closed")
        self._peer_reader.feed_data(data)

    async def drain(self) -> None:
        if self._closed or self._broken:
            raise ConnectionResetError("in-process peer closed")
        # Yield to the event loop so readers run; there is no real buffer.
        await asyncio.sleep(0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._peer_reader.feed_eof()
        if self._peer_writer is not None:
            self._peer_writer._broken = True

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return


class _MemoryTransport:
    """The registry of listening in-process nodes."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Any] = {}

    async def listen(self, name: str, handler) -> "_MemoryServer":
        self._handlers[name] = handler
        return _MemoryServer(self, name)

    async def connect(self, name: str):
        handler = self._handlers.get(name)
        if handler is None:
            raise ConnectionRefusedError(f"no listener named {name!r}")
        here_reader = asyncio.StreamReader()
        there_reader = asyncio.StreamReader()
        here_writer = _MemoryWriter(there_reader)
        there_writer = _MemoryWriter(here_reader)
        here_writer._peer_writer = there_writer
        there_writer._peer_writer = here_writer
        asyncio.get_running_loop().create_task(handler(there_reader, there_writer))
        return here_reader, here_writer


class _MemoryServer:
    def __init__(self, transport: _MemoryTransport, name: str) -> None:
        self._transport = transport
        self._name = name

    def close(self) -> None:
        self._transport._handlers.pop(self._name, None)

    async def wait_closed(self) -> None:
        return


# --------------------------------------------------------------------------- #
# TCP transport (loopback)                                                    #
# --------------------------------------------------------------------------- #

def _set_nodelay(writer) -> None:
    """Disable Nagle on a TCP stream.  The protocol is strictly small
    request/response and gossip frames; with Nagle on, every sub-MSS frame
    waits for the peer's delayed ACK (~40ms on Linux loopback), which caps
    a ping-pong client at ~25 ops/s regardless of how fast the replicas
    are.  Both the dialing and the accepting side must opt out — either
    side's Nagle re-introduces the stall."""
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (or a platform without the knob)


class _TcpTransport:
    """Loopback TCP with a name -> (host, port) registry, resolved at every
    connect so a recovered replica's fresh port is picked up lazily."""

    def __init__(self) -> None:
        self._addresses: Dict[str, Tuple[str, int]] = {}

    async def listen(self, name: str, handler):
        async def accept(reader, writer):
            _set_nodelay(writer)
            await handler(reader, writer)

        server = await asyncio.start_server(accept, "127.0.0.1", 0)
        self._addresses[name] = server.sockets[0].getsockname()[:2]
        return _TcpServer(self, name, server)

    async def connect(self, name: str):
        address = self._addresses.get(name)
        if address is None:
            raise ConnectionRefusedError(f"no listener named {name!r}")
        reader, writer = await asyncio.open_connection(*address)
        _set_nodelay(writer)
        return reader, writer


class _TcpServer:
    def __init__(self, transport: _TcpTransport, name: str, server: asyncio.AbstractServer) -> None:
        self._transport = transport
        self._name = name
        self._server = server

    def close(self) -> None:
        self._transport._addresses.pop(self._name, None)
        self._server.close()

    async def wait_closed(self) -> None:
        await self._server.wait_closed()


# --------------------------------------------------------------------------- #
# Send links                                                                  #
# --------------------------------------------------------------------------- #

class _SendLink:
    """One bounded outgoing queue + writer task toward a fixed peer.

    ``dial=True`` links own their connection (replica->replica: lazily
    (re)connected through the transport registry); ``dial=False`` links
    write onto an already-accepted connection's writer (replica->client
    responses ride the client's own duplex connection)."""

    def __init__(self, cluster: "NetCluster", source: str, dest: str,
                 writer=None) -> None:
        self._cluster = cluster
        self._source = source
        self._dest = dest
        self._writer = writer
        self._dial = writer is None
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=cluster.params.send_queue_limit)
        self.task = asyncio.get_running_loop().create_task(self._run())

    async def send(self, kind: str, message) -> None:
        await self.queue.put((kind, message))

    def send_nowait(self, kind: str, message) -> bool:
        try:
            self.queue.put_nowait((kind, message))
            return True
        except asyncio.QueueFull:
            return False

    def close(self) -> None:
        self.task.cancel()
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
            self._writer = None

    async def _run(self) -> None:
        params = self._cluster.params
        while True:
            batch: List[Tuple[str, Any]] = [await self.queue.get()]
            while len(batch) < params.coalesce_limit:
                try:
                    batch.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            frame, sizes = encode_frame_detailed([message for _, message in batch])
            if self._writer is None and self._dial:
                self._writer = await self._connect()
                if self._writer is None:
                    # Peer unreachable: the batch is lost (fault model).
                    self._cluster.stats.link_dial_lost += len(batch)
                    continue
            try:
                await write_frame(self._writer, frame)
            except (ConnectionError, OSError):
                self._cluster.stats.link_write_lost += len(batch)
                self._drop_connection()
                continue  # re-dial on the next batch
            self._cluster.stats.record_frame(batch, len(frame), sizes)

    def _drop_connection(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._writer = None
        if not self._dial:
            # An accepted connection cannot be re-dialed from this side;
            # the peer re-connects and a fresh link replaces this one.
            self.task.cancel()

    async def _connect(self):
        try:
            reader, writer = await self._cluster.transport.connect(self._dest)
            await _write_hello(writer, self._source)
        except (ConnectionError, OSError):
            await asyncio.sleep(self._cluster.params.reconnect_delay)
            return None
        # The reverse direction of a dialed replica link is unused; leave
        # the reader unconsumed (EOF surfaces through write errors).
        return writer


# --------------------------------------------------------------------------- #
# Nodes                                                                       #
# --------------------------------------------------------------------------- #

class _ReplicaNode:
    def __init__(self, replica_id: str, core: ReplicaCore) -> None:
        self.id = replica_id
        self.core = core
        self.crashed = False
        self.server = None
        #: Outgoing replica->replica links.
        self.links: Dict[str, _SendLink] = {}
        #: Response links keyed by client id (onto accepted connections).
        self.client_out: Dict[str, _SendLink] = {}
        #: Tasks serving accepted connections (+ the gossip loop).
        self.tasks: Set[asyncio.Task] = set()

    def teardown(self) -> None:
        self.crashed = True
        if self.server is not None:
            self.server.close()
            self.server = None
        for task in self.tasks:
            task.cancel()
        self.tasks.clear()
        for link in self.links.values():
            link.close()
        self.links.clear()
        for link in self.client_out.values():
            link.close()
        self.client_out.clear()


class _ClientConn:
    """A client's duplex connection to one replica."""

    def __init__(self, writer, reader_task: asyncio.Task) -> None:
        self.writer = writer
        self.reader_task = reader_task
        self.lock = asyncio.Lock()
        self.dead = False

    def close(self) -> None:
        self.dead = True
        self.reader_task.cancel()
        try:
            self.writer.close()
        except Exception:
            pass


class NetCluster:
    """A full ESDS deployment over asyncio streams.

    Usage (an event loop must be running — tests wrap in ``asyncio.run``)::

        cluster = NetCluster(Counter(), num_replicas=4, client_ids=("c0",),
                             params=NetParams(delta_gossip=True), transport="tcp")
        async with cluster:
            value = await cluster.submit("c0", Operator("add", (5,)))
            await cluster.quiesce()

    The constructor mirrors :class:`~repro.sim.cluster.SimulatedCluster`
    where the concepts coincide; time is real, so there are no ``df``/``dg``
    knobs — delivery takes as long as the event loop takes.
    """

    def __init__(
        self,
        data_type: SerialDataType,
        num_replicas: int = 3,
        client_ids: Sequence[str] = ("c0",),
        params: Optional[NetParams] = None,
        transport: str = "memory",
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        if num_replicas < 2:
            raise ConfigurationError("the algorithm assumes at least two replicas")
        self.data_type = data_type
        self.params = params or NetParams()
        if config is not None:
            # Overlay the unified replica configuration onto the transport
            # parameters (same precedence as SimulationParams(replica=...)).
            self.params = replace(self.params, replica=config)
        if transport == "memory":
            self.transport = _MemoryTransport()
        elif transport == "tcp":
            self.transport = _TcpTransport()
        else:
            raise ConfigurationError(f"unknown transport {transport!r}")

        self.replica_ids: Tuple[str, ...] = tuple(f"r{i}" for i in range(num_replicas))
        factory = core_factory(self.params.replica_config)
        self.replicas: Dict[str, ReplicaCore] = {
            rid: factory(rid, self.replica_ids, data_type) for rid in self.replica_ids
        }
        self.compaction_ledger = CompactionLedger()
        replica_config = self.params.replica_config
        for rid, core in self.replicas.items():
            replica_config.configure_core(core)
            core.on_compact = self.compaction_ledger.record

        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.frontends: Dict[str, FrontEndCore] = {
            cid: FrontEndCore(cid, self.replica_ids) for cid in self.client_ids
        }
        self.id_generators: Dict[str, OperationIdGenerator] = {
            cid: OperationIdGenerator(cid) for cid in self.client_ids
        }
        self._affinity: Dict[str, str] = {
            cid: self.replica_ids[i % len(self.replica_ids)]
            for i, cid in enumerate(self.client_ids)
        }

        self.trace = TraceRecord()
        self.requested: Dict[OperationId, OperationDescriptor] = {}
        self.responded: Dict[OperationId, Any] = {}
        self.failed: Dict[OperationId, str] = {}
        self.stats = NetStats()

        self._nodes: Dict[str, _ReplicaNode] = {}
        self._client_conns: Dict[str, Dict[str, _ClientConn]] = {cid: {} for cid in self.client_ids}
        self._futures: Dict[OperationId, asyncio.Future] = {}
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    async def __aenter__(self) -> "NetCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        for rid in self.replica_ids:
            await self._start_replica(rid)
        for cid in self.client_ids:
            for rid in self.replica_ids:
                await self._connect_client(cid, rid)

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        for node in self._nodes.values():
            node.teardown()
        for conns in self._client_conns.values():
            for conn in conns.values():
                conn.close()
            conns.clear()
        # Let cancellations unwind before the loop closes.
        await asyncio.sleep(0)

    async def _start_replica(self, rid: str) -> None:
        node = _ReplicaNode(rid, self.replicas[rid])
        self._nodes[rid] = node

        async def serve(reader, writer) -> None:
            await self._serve_connection(node, reader, writer)

        node.server = await self.transport.listen(rid, serve)
        for dest in self.replica_ids:
            if dest != rid:
                node.links[dest] = _SendLink(self, rid, dest)
        task = asyncio.get_running_loop().create_task(self._gossip_loop(node))
        node.tasks.add(task)

    # -- replica side ----------------------------------------------------------

    async def _serve_connection(self, node: _ReplicaNode, reader, writer) -> None:
        task = asyncio.current_task()
        node.tasks.add(task)
        try:
            sender = await _read_hello(reader)
            if sender is None or node.crashed:
                return
            if sender in self.frontends:
                # The client's duplex connection doubles as its response
                # channel; a reconnect replaces any stale link.
                old = node.client_out.pop(sender, None)
                if old is not None:
                    old.close()
                node.client_out[sender] = _SendLink(self, node.id, sender, writer=writer)
            while True:
                frame = await read_frame(reader)
                if frame is None or node.crashed:
                    break
                self.stats.frames_received += 1
                self.stats.bytes_received += len(frame) + _LEN.size
                await self._handle_frame(node, decode_frame(frame))
        except asyncio.CancelledError:
            # Replica crash / cluster stop cancels serve tasks; exiting
            # normally keeps asyncio's stream-protocol callback quiet.
            pass
        finally:
            node.tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_frame(self, node: _ReplicaNode, messages: Sequence[Any]) -> None:
        """Apply one decoded frame's messages to the replica core.

        A coalesced frame is one sender's wakeup worth of messages, so runs
        of gossip messages within it merge as a batch through
        ``receive_gossip_batch`` (the batch kernel defers its order splices
        across the run), and the post-merge sweep — stale NACKs, the
        ``do_it`` sweep, ready responses — runs once per frame instead of
        once per message.  Pull requests only generate transfers and never
        need the sweep, matching the previous per-message handling."""
        if node.crashed:
            return
        core = node.core
        swept = True
        i, n = 0, len(messages)
        while i < n:
            message = messages[i]
            kind = message.kind
            if kind == "gossip":
                j = i + 1
                while j < n and messages[j].kind == "gossip":
                    j += 1
                core.receive_gossip_batch(messages[i:j])
                for pull in core.take_pending_pulls():
                    await node.links[pull.target].send("pull", pull)
                swept = False
                i = j
                continue
            if kind == "request":
                core.receive_request(message)
                swept = False
            elif kind == "pull":
                for transfer in core.receive_pull_request(message):
                    await node.links[transfer.requester].send("transfer", transfer)
            elif kind == "transfer":
                core.receive_transfer(message)
                swept = False
            # else: a response frame sent to a replica — ignore
            i += 1
        if swept:
            return
        for operation in core.take_stale_nacks():
            await self._send_response(
                node,
                ResponseMessage(operation=operation, value=None, stale=True, sender=node.id),
            )
        core.do_all_ready()
        for operation in core.ready_responses():
            await self._send_response(node, core.make_response(operation))

    async def _send_response(self, node: _ReplicaNode, message: ResponseMessage) -> None:
        link = node.client_out.get(message.operation.id.client)
        if link is not None:
            await link.send("response", message)
        else:
            # No connection from that client: the response is lost, exactly
            # like a dropped message; the front end's retry path recovers.
            self.stats.responses_unrouted += 1

    async def _gossip_loop(self, node: _ReplicaNode) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.params.gossip_period)
            if node.crashed:
                return
            for dest, link in node.links.items():
                if link.queue.full():
                    # Skip *before* building: under delta gossip a built-
                    # then-dropped message would consume a stream seqno.
                    self.stats.gossip_skipped += 1
                    continue
                message = node.core.make_gossip(dest)
                message.sent_at = loop.time()
                if not link.send_nowait("gossip", message):
                    self.stats.gossip_skipped += 1

    # -- client side -----------------------------------------------------------

    async def _connect_client(self, cid: str, rid: str) -> Optional[_ClientConn]:
        try:
            reader, writer = await self.transport.connect(rid)
            await _write_hello(writer, cid)
        except (ConnectionError, OSError):
            return None
        task = asyncio.get_running_loop().create_task(self._client_reader(cid, reader))
        conn = _ClientConn(writer, task)
        self._client_conns[cid][rid] = conn
        return conn

    async def _client_reader(self, cid: str, reader) -> None:
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            self.stats.frames_received += 1
            self.stats.bytes_received += len(frame) + _LEN.size
            for message in decode_frame(frame):
                if message.kind == "response":
                    self._deliver_response(cid, message)

    def _deliver_response(self, cid: str, message: ResponseMessage) -> None:
        frontend = self.frontends[cid]
        op_id = message.operation.id
        if not frontend.receive_response(message):
            # A stale NACK may have just tipped the operation into permanent
            # failure (every replica's retained value aged out).
            if message.stale and op_id in frontend.failed and op_id not in self.failed:
                self.failed[op_id] = frontend.failed[op_id]
                future = self._futures.pop(op_id, None)
                if future is not None and not future.done():
                    future.set_exception(OperationFailed(self.failed[op_id]))
            return
        value = frontend.respond(message.operation)
        self.responded[op_id] = value
        self.failed.pop(op_id, None)
        self.trace.record_response(message.operation, value)
        future = self._futures.pop(op_id, None)
        if future is not None and not future.done():
            future.set_result(value)

    async def _send_request(self, cid: str, rid: str, message) -> None:
        conn = self._client_conns[cid].get(rid)
        if conn is None or conn.dead:
            conn = await self._connect_client(cid, rid)
            if conn is None:
                self.stats.requests_unreachable += 1  # the send is lost
                return
        frame, sizes = encode_frame_detailed([message])
        try:
            async with conn.lock:
                await write_frame(conn.writer, frame)
        except (ConnectionError, OSError):
            self.stats.requests_write_lost += 1
            conn.close()
            self._client_conns[cid].pop(rid, None)
            return
        self.stats.record_frame([("request", message)], len(frame), sizes)

    # -- public client API -----------------------------------------------------

    def ensure_client(self, client_id: str) -> None:
        """Register *client_id* lazily: a front end, an id counter, an
        affinity replica.  Used when a foreign composite client identity
        first appears at this deployment — e.g. a migrated slice being
        :meth:`ingest`-ed under its original minting identities.  Existing
        clients are left untouched; connections dial lazily on first send."""
        if client_id in self.frontends:
            return
        self.client_ids = self.client_ids + (client_id,)
        self.frontends[client_id] = FrontEndCore(client_id, self.replica_ids)
        self.id_generators[client_id] = OperationIdGenerator(client_id)
        self._affinity[client_id] = self.replica_ids[len(self._affinity) % len(self.replica_ids)]
        self._client_conns.setdefault(client_id, {})

    async def ingest(
        self, operations: Sequence[OperationDescriptor], timeout: float = 30.0
    ) -> Dict[OperationId, Any]:
        """Replay a ``prev``-chained operation slice under its original
        (possibly foreign) client identities — the network-side hook a
        resharding coordinator uses to hand a migrated history to its new
        owner.  Operations execute sequentially so every link's ``prev`` is
        answered at the affinity replica before the next link is sent; the
        returned mapping carries each operation's response value."""
        values: Dict[OperationId, Any] = {}
        for operation in operations:
            self.ensure_client(operation.id.client)
            if operation.id in self.responded:
                values[operation.id] = self.responded[operation.id]
                continue
            values[operation.id] = await self.execute(operation, timeout=timeout)
        return values

    def make_operation(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
    ) -> OperationDescriptor:
        if client not in self.id_generators:
            raise ConfigurationError(f"unknown client {client!r}")
        self.data_type.check_operator(operator)
        prev_ids = frozenset(prev)
        unknown = {p for p in prev_ids if p not in self.requested}
        if unknown:
            raise ConfigurationError(
                f"prev references operations never requested: {sorted(map(str, unknown))}"
            )
        return make_operation(operator, self.id_generators[client].fresh(), prev_ids, strict)

    async def submit(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        timeout: float = 30.0,
    ) -> Any:
        """Submit one operation and await its response value.

        Raises :class:`OperationFailed` if every replica NACKs it, and
        ``asyncio.TimeoutError`` if nothing answers within *timeout*."""
        operation = self.make_operation(client, operator, prev, strict)
        return await self.execute(operation, timeout=timeout)

    async def execute(self, operation: OperationDescriptor, timeout: float = 30.0) -> Any:
        client = operation.id.client
        frontend = self.frontends[client]
        frontend.request(operation)
        self.requested[operation.id] = operation
        self.trace.record_request(operation)
        future = asyncio.get_running_loop().create_future()
        self._futures[operation.id] = future
        message = frontend.make_request_message(operation)
        targets: List[str] = [self._affinity[client]]
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            for rid in targets:
                await self._send_request(client, rid, message)
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                self._futures.pop(operation.id, None)
                raise asyncio.TimeoutError(f"operation {operation.id} unanswered")
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), min(self.params.request_retry, remaining)
                )
            except asyncio.TimeoutError:
                if future.done():
                    return future.result()
                # Retry, redirected away from replicas that NACKed (the
                # affinity replica would otherwise be retried forever).
                nacked = frontend.nacked.get(operation.id, ())
                live = [rid for rid in self.replica_ids if not self._nodes[rid].crashed]
                targets = [rid for rid in live if rid not in nacked] or list(self.replica_ids)

    # -- faults ----------------------------------------------------------------

    async def crash_replica(self, rid: str, volatile_memory: bool = True) -> None:
        """Crash a replica: its server stops, every connection breaks, its
        volatile state is lost (labels survive in stable storage)."""
        node = self._nodes[rid]
        node.teardown()
        self.replicas[rid].crash(volatile_memory=volatile_memory)
        for cid in self.client_ids:
            conn = self._client_conns[cid].pop(rid, None)
            if conn is not None:
                conn.close()
        await asyncio.sleep(0)

    async def recover_replica(self, rid: str) -> None:
        """Restart a crashed replica: reload stable storage, listen again
        (on a fresh port); peers and clients re-dial lazily and the next
        gossip rounds resupply the lost state (Section 9.3)."""
        self.replicas[rid].recover_from_stable_storage()
        await self._start_replica(rid)

    # -- oracles / convergence -------------------------------------------------

    def fully_converged(self) -> bool:
        """Has every requested operation become stable at every live
        replica?  (Compacted operations are stable by construction.)"""
        requested = set(self.requested.values())
        return all(
            all(replica.knows_stable(op) for op in requested)
            for rid, replica in self.replicas.items()
            if not self._nodes[rid].crashed
        )

    def outstanding_operations(self) -> int:
        return len(self._futures)

    async def quiesce(self, timeout: float = 30.0) -> bool:
        """Wait (gossip keeps flowing) until every submitted operation is
        answered and every live replica knows everything stable; ``True`` on
        convergence, ``False`` on timeout."""
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            if not self._futures and self.fully_converged():
                return True
            await asyncio.sleep(self.params.gossip_period)
        return False

    def algorithm_view(self):
        """See :func:`repro.sim.cluster.algorithm_view_of`; faithful once
        :meth:`quiesce` returned ``True``."""
        from repro.sim.cluster import algorithm_view_of

        return algorithm_view_of(self)

    def eventual_order(self) -> List[OperationId]:
        """See :func:`repro.sim.cluster.eventual_order_of`."""
        from repro.sim.cluster import eventual_order_of

        return eventual_order_of(self)
