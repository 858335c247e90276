"""The three workloads, one repeat each.

Each function runs one repeat in the current (fresh) process and returns a
JSON-ready dict of raw measurements; ``run.py`` aggregates repeats.  All
three use 4 replicas and the production configuration of
:mod:`benchconfig`.

* ``sim-history`` -- a seeded ``SimulatedCluster`` history: 8 simulated
  clients, a 2/3 increment, 1/3 read counter mix, 5% strict.  Wall time is
  spent in the replica core and the simulator's scheduler only.
* ``tcp-open`` -- a ``NetCluster`` over TCP loopback under an open Poisson
  loop of non-strict keyed operations at a reference rate
  (:func:`tcp_open`), and the stepped search for the highest rate whose
  p99 meets the limit (:func:`tcp_capacity`).
* ``tcp-strict-crash`` -- the same cluster and key mix at a lower rate with
  10% strict operations; replica ``r1`` crashes (volatile memory) at 30% of
  the run and recovers at 45%.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import heapq
import random
import resource
import time
from typing import Any, Dict, List, Optional

from benchconfig import production_config
from benchstats import capacity, closure_error, next_probe, percentile
from checks import (
    check_answered,
    check_serializable,
    check_states_agree,
    converged,
    require,
    surviving,
)
from loadgen import Arrival, OpenLoop, keyed_schedule, lateness
from tracing import CORE_METHODS, GcMonitor, Meter, SelectorIdle, Tracer, sample_loop

from repro import CounterType, KeyedStore, NetCluster, NetParams, SimulatedCluster, SimulationParams
from repro.conformance.oracles import classify_casualties, quiesce
from repro.net import runtime
from repro.sim.workload import CLIENT_SEED_STRIDE, ClientWorkload, WorkloadSpec

NUM_REPLICAS = 4
#: Cluster builds per repeat; ``setup_s`` is their median, each build
#: scaled to the reference speed like the ``sim-history`` stretches below.
SETUP_REPEATS = 8

SIM_CLIENTS = 8
SIM_OPS = 5000
SIM_STRICT_FRACTION = 0.05
#: Simulated seconds: 10 ms message delays, 20 ms gossip period, 200
#: operations per simulated second per client.
SIM_TIMING = {"df": 0.01, "dg": 0.01, "gossip_period": 0.02, "jitter": 0.5}
SIM_INTERARRIVAL = 0.005
#: Simulated seconds the timed run may continue past the nominal window.
SIM_DRAIN_BOUND = 10.0
#: ``sim-history`` and the cluster builds are CPU-bound, and the speed of a
#: shared machine drifts by +-15% within seconds and over minutes.  The
#: timed run is split into SIM_CHUNKS stretches with a short fixed
#: computation (``calibration_s``) timed between them, and each stretch is
#: scaled to a machine that takes CALIBRATION_REFERENCE_S for that
#: computation (about the typical speed of the 2-core machine the benchmark
#: was tuned on).  A same-run ratio: the drift cancels, while a change to
#: the program moves the figure in full.
SIM_CHUNKS = 8
CALIBRATION_REFERENCE_S = 0.05

NET_CLIENTS = ("c0", "c1")
GOSSIP_PERIOD = 0.05
REFERENCE_RATE = 150.0
CRASH_RATE = 100.0
CRASH_STRICT_FRACTION = 0.10
CRASHED = "r1"
#: The client whose affinity replica is ``CRASHED``.
AFFECTED_CLIENT = "c1"
CRASH_AT, RECOVER_AT = 0.30, 0.45
#: Capacity search: p99 limit, rate growth per probe, probe length and the
#: bisections of the bracket once a probe misses the limit.
P99_LIMIT = 0.100
RATE_GROWTH = 1.15
PROBE_SECONDS = 1.5
REFINEMENTS = 2
#: Loop-lag sampler period (traced passes).
SAMPLE_PERIOD = 0.01
#: Bound on waiting for convergence / catch-up before declaring failure.
CONVERGE_TIMEOUT = 30.0


def calibration_s() -> float:
    """Time of a fixed pure-Python computation (heap, dict and sort work,
    like the simulator's): the machine's current speed, measured between
    the chunks of a CPU-bound timed run so that the run can be scaled to
    the speed at which this takes ``CALIBRATION_REFERENCE_S``."""
    rng = random.Random(0)
    # The collector stays off: its passes would scan the program's heap,
    # and this must time the machine, not the heap the run has built.
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            heap: List[tuple] = []
            counts: Dict[int, int] = {}
            for i in range(20000):
                key = (i * 7919) % 5003
                counts[key] = counts.get(key, 0) + 1
                heapq.heappush(heap, (rng.random(), i))
            while heap:
                heapq.heappop(heap)
            sorted(counts.items(), key=lambda item: -item[1])
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_speed(before: float, after: float) -> float:
    """Factor scaling a wall time measured between two calibrations (taking
    *before* and *after* seconds) to the reference machine speed."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)


class SetupTimer:
    """Times cluster builds (``with timer:`` around one build), each scaled
    by the calibrations taken just before and just after it."""

    def __init__(self) -> None:
        self.raw_s: List[float] = []
        self.scaled_s: List[float] = []
        self._calibration = calibration_s()

    def __enter__(self) -> "SetupTimer":
        gc.collect()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        after = calibration_s()
        self.raw_s.append(elapsed)
        self.scaled_s.append(elapsed * reference_speed(self._calibration, after))
        self._calibration = after


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stat_totals(cluster) -> Dict[str, int]:
    totals = {
        "do_it": 0,
        "value_applications": 0,
        "gossip_received": 0,
        "compacted_ops": 0,
    }
    for replica in cluster.replicas.values():
        stats = replica.stats
        totals["do_it"] += stats.do_it_count
        totals["value_applications"] += stats.value_applications
        totals["gossip_received"] += stats.gossip_received
        totals["compacted_ops"] += stats.compacted_operations
    return totals


def _diff(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _core_layers(tracer: Tracer, totals: Dict[str, int], ops: int) -> Dict[str, float]:
    """Per-layer metrics of the replica core and front end."""
    out: Dict[str, float] = {}
    for method in CORE_METHODS:
        out[f"core.{method}.busy_s"] = tracer.self_s.get(f"core.{method}", 0.0)
        out[f"core.{method}.calls"] = tracer.calls.get(f"core.{method}", 0)
    batches = tracer.calls.get("core.receive_gossip_batch", 0)
    out["core.gossip_msgs_per_batch"] = totals["gossip_received"] / batches if batches else 0.0
    out["core.value_applications_per_op"] = totals["value_applications"] / ops
    out["core.gossip_received_per_op"] = totals["gossip_received"] / ops
    out["core.compacted_ops"] = totals["compacted_ops"]
    out["core.do_it"] = totals["do_it"]
    out["frontend.busy_s"] = tracer.self_s.get("frontend", 0.0)
    return out


def _gc_layer(monitor: GcMonitor) -> Dict[str, float]:
    return {
        "gc.pauses": monitor.pauses,
        "gc.pause_total_s": monitor.total_s,
        "gc.pause_max_ms": monitor.max_s * 1e3,
    }


def _layer_self(tracer: Tracer, exclude: str = "") -> Dict[str, float]:
    return {name: t for name, t in tracer.self_s.items() if name != exclude}


# --------------------------------------------------------------------------- #
# sim-history                                                                 #
# --------------------------------------------------------------------------- #


def _build_sim(seed: int):
    params = SimulationParams(**SIM_TIMING, replica=production_config())
    cluster = SimulatedCluster(
        CounterType(),
        NUM_REPLICAS,
        [f"c{i}" for i in range(SIM_CLIENTS)],
        params=params,
        seed=seed,
    )
    spec = WorkloadSpec(
        operations_per_client=SIM_OPS // SIM_CLIENTS,
        mean_interarrival=SIM_INTERARRIVAL,
        poisson_arrivals=True,
        strict_fraction=SIM_STRICT_FRACTION,
    )
    cluster.start()
    for index, client in enumerate(cluster.client_ids):
        workload = ClientWorkload(client, spec, seed=seed * CLIENT_SEED_STRIDE + index)
        workload.install(cluster, start_time=cluster.now)
    return cluster, spec


def sim_history(seed: int, traced: bool, oracle: bool) -> Dict[str, Any]:
    """One seeded simulated history, timed from first to last event."""
    setup = SetupTimer()
    for _ in range(SETUP_REPEATS):
        cluster = None
        with setup:
            cluster, spec = _build_sim(seed)
    gc.collect()

    tracer = Tracer()
    if traced:
        tracer.wrap_cluster(cluster)
        tracer.wrap(cluster.simulator, "step", "sim.step")
    # The history runs in SIM_CHUNKS stretches of simulated time (the same
    # events in the same order as one stretch), with the machine's speed
    # measured between them; each stretch's wall time is scaled by the
    # speed measured around it.
    chunk = spec.operations_per_client * spec.mean_interarrival / SIM_CHUNKS
    monitor, meter = GcMonitor(), Meter()
    calibrations = [calibration_s()]
    reference_wall = 0.0
    for index in range(SIM_CHUNKS):
        before = meter.wall_s
        with monitor if traced else contextlib.nullcontext(), meter:
            cluster.run(chunk)
            if index == SIM_CHUNKS - 1:
                # Poisson arrivals spill past the nominal window; run until
                # the last operation is answered (bounded, for a live-lock).
                cluster.run_until_idle(max_time=SIM_DRAIN_BOUND)
        calibrations.append(calibration_s())
        reference_wall += (meter.wall_s - before) * reference_speed(*calibrations[-2:])
    tracer.restore()
    rss = _peak_rss_mb()

    ops = len(cluster.requested)
    counters = cluster.network.counters
    totals = _stat_totals(cluster)
    counts = {
        "ops": ops,
        "events": cluster.simulator.events_processed,
        "messages": counters.request + counters.response + counters.gossip
        + counters.pull + counters.transfer,
        "requests": counters.request,
        "gossip_payload": counters.gossip_payload,
        **totals,
        "tracked_ops_peak": cluster.metrics.peak_tracked_ops(),
    }
    records = cluster.metrics.records
    nonstrict = [r.latency for r in records if not r.operation.strict]
    strict = [r.latency for r in records if r.operation.strict]

    # -- correctness (untimed) --
    check_answered(cluster, set())
    require(ops == SIM_OPS, f"{ops} operations submitted, expected {SIM_OPS}")
    require(totals["do_it"] == ops, f"do_it ran {totals['do_it']} times for {ops} operations")
    require(quiesce(cluster), "cluster did not converge after the drain")
    check_states_agree(cluster)
    if oracle:
        check_serializable(cluster, set(), set())

    result = {
        "setup_s": setup.scaled_s,
        "setup_raw_s": setup.raw_s,
        "wall_s": meter.wall_s,
        "steal_frac": meter.steal_frac,
        "reference_wall_s": reference_wall,
        "calibrations_s": calibrations,
        "peak_rss_mb": rss,
        "counts": counts,
        "latency": {
            "nonstrict_n": len(nonstrict),
            "strict_n": len(strict),
            "p50_ms": percentile(nonstrict, 0.50) * 1e3,
            "p99_ms": percentile(nonstrict, 0.99) * 1e3,
            "strict_p50_ms": percentile(strict, 0.50) * 1e3,
            "strict_p95_ms": percentile(strict, 0.95) * 1e3,
        },
    }
    if traced:
        layers = _core_layers(tracer, totals, ops)
        step_self = tracer.self_s.get("sim.step", 0.0)
        layers.update(_gc_layer(monitor))
        layers.update(
            {
                "sim.events": tracer.calls.get("sim.step", 0),
                "sim.messages": counts["messages"],
                "sim.gossip_payload": counts["gossip_payload"],
                "sim.other_s": step_self,
                "core.tracked_ops_peak": counts["tracked_ops_peak"],
                "loop.busy_frac": meter.cpu_s / meter.wall_s,
                "proc.ready_s": meter.ready_s,
                "host.steal_frac": meter.steal_frac,
                "trace.unexplained_frac": closure_error(
                    _layer_self(tracer, "sim.step"), step_self, 0.0, meter.ready_s, meter.wall_s
                ),
            }
        )
        result["layers"] = layers
    return result


# --------------------------------------------------------------------------- #
# TCP workloads                                                               #
# --------------------------------------------------------------------------- #


async def _start_cluster() -> tuple:
    """Build and start the cluster ``SETUP_REPEATS`` times (keeping the
    last); returns it with the :class:`SetupTimer`."""
    setup = SetupTimer()
    cluster = None
    for index in range(SETUP_REPEATS):
        with setup:
            cluster = NetCluster(
                KeyedStore(CounterType()),
                NUM_REPLICAS,
                NET_CLIENTS,
                params=NetParams(gossip_period=GOSSIP_PERIOD),
                transport="tcp",
                config=production_config(),
            )
            await cluster.start()
        if index < SETUP_REPEATS - 1:
            await cluster.stop()
    gc.collect()
    return cluster, setup


def _net_totals(cluster) -> Dict[str, int]:
    stats = cluster.stats
    totals = _stat_totals(cluster)
    totals.update({f"msg.{kind}": n for kind, n in stats.messages_by_kind.items()})
    totals["frames_sent"] = stats.frames_sent
    totals["bytes_sent"] = stats.bytes_sent
    totals["gossip_payload"] = stats.payload_bytes_by_kind["gossip"]
    totals["gossip_skipped"] = stats.gossip_skipped
    return totals


class _Pass:
    """One measured stretch of a TCP run, traced or not."""

    def __init__(self, cluster, traced: bool) -> None:
        self.cluster = cluster
        self.traced = traced
        self.tracer = Tracer()
        self.lags: List[float] = []
        self.tracked_peak = 0
        self._sampler: Optional[asyncio.Task] = None

    def _probe(self) -> None:
        for replica in self.cluster.replicas.values():
            self.tracked_peak = max(self.tracked_peak, replica.tracked_op_count())

    async def __aenter__(self) -> "_Pass":
        loop = asyncio.get_running_loop()
        if self.traced:
            self.tracer.wrap_cluster(self.cluster)
            self.tracer.wrap(runtime, "encode_frame_detailed", "codec.encode")
            self.tracer.wrap(runtime, "decode_frame", "codec.decode")
            self._idle = SelectorIdle(loop).__enter__()
            self._sampler = loop.create_task(sample_loop(SAMPLE_PERIOD, self.lags, self._probe))
            self._gc = GcMonitor().__enter__()
        self.before = _net_totals(self.cluster)
        self.meter = Meter().__enter__()
        return self

    async def __aexit__(self, *exc) -> None:
        self.meter.__exit__()
        self.delta = _diff(_net_totals(self.cluster), self.before)
        if self.traced:
            self._gc.__exit__()
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
            self._idle.__exit__()
            self.tracer.restore()

    def layers(self, ops: int, arrivals: List[Arrival]) -> Dict[str, float]:
        tracer, delta = self.tracer, self.delta
        layers = _core_layers(tracer, delta, ops)
        layers.update(_gc_layer(self._gc))
        messages = sum(delta[f"msg.{kind}"] for kind in self.cluster.stats.KINDS)
        gossip = delta["msg.gossip"]
        meter = self.meter
        layer_self = _layer_self(tracer)
        other = meter.cpu_s - sum(layer_self.values())
        late = lateness(arrivals)
        layers.update(
            {
                "codec.encode.busy_s": tracer.self_s.get("codec.encode", 0.0),
                "codec.encode.calls": tracer.calls.get("codec.encode", 0),
                "codec.decode.busy_s": tracer.self_s.get("codec.decode", 0.0),
                "codec.decode.calls": tracer.calls.get("codec.decode", 0),
                "codec.bytes_per_op": delta["bytes_sent"] / ops,
                "codec.gossip_bytes_per_msg": delta["gossip_payload"] / gossip if gossip else 0.0,
                "runtime.msgs_per_frame": messages / delta["frames_sent"],
                "runtime.gossip_msgs": gossip,
                "runtime.gossip_skipped": delta["gossip_skipped"],
                "runtime.pull_msgs": delta["msg.pull"],
                "runtime.transfer_msgs": delta["msg.transfer"],
                "runtime.requests_per_op": delta["msg.request"] / ops,
                "runtime.other_s": other,
                "core.tracked_ops_peak": self.tracked_peak,
                "loop.lag_p50_ms": percentile(self.lags, 0.50) * 1e3,
                "loop.lag_p99_ms": percentile(self.lags, 0.99, min_tail=0) * 1e3,
                "loop.busy_frac": meter.cpu_s / meter.wall_s,
                "proc.ready_s": meter.ready_s,
                "host.steal_frac": meter.steal_frac,
                "loadgen.late_p99_ms": percentile(late, 0.99, min_tail=0) * 1e3,
                "trace.unexplained_frac": closure_error(
                    layer_self, other, self._idle.idle_s, meter.ready_s, meter.wall_s
                ),
            }
        )
        return layers


async def _wait_converged(cluster, operations) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + CONVERGE_TIMEOUT
    while not converged(cluster, operations):
        require(loop.time() < deadline, "cluster did not converge after the load")
        await asyncio.sleep(GOSSIP_PERIOD)


async def _finish(cluster, oracle: bool) -> Dict[str, Any]:
    """Drain-time correctness checks shared by the TCP workloads."""
    lost, stuck = classify_casualties(cluster)
    check_answered(cluster, stuck)
    await _wait_converged(cluster, surviving(cluster, lost, stuck))
    check_states_agree(cluster)
    if oracle:
        check_serializable(cluster, lost, stuck)
    return {"lost": len(lost), "stuck": len(stuck)}


def _latencies(arrivals: List[Arrival]) -> Dict[str, List[float]]:
    """Latencies (ms, from the due time) of the completed operations."""
    done = [a for a in arrivals if a.done is not None]
    return {
        "nonstrict": [a.latency * 1e3 for a in done if not a.strict],
        "strict": [a.latency * 1e3 for a in done if a.strict],
    }


async def _run_open_loop(cluster, arrivals: List[Arrival], origin: float) -> None:
    gen = OpenLoop(cluster, origin)
    await gen.send(arrivals)
    await gen.drain()


def _measured(arrivals: List[Arrival], setup: SetupTimer, measured: _Pass) -> Dict[str, Any]:
    ops = len(arrivals)
    last_done = max(a.done for a in arrivals if a.done is not None)
    return {
        "setup_s": setup.scaled_s,
        "setup_raw_s": setup.raw_s,
        "attempted": ops,
        "failed": sum(a.failed for a in arrivals),
        "throughput_ops_s": sum(a.done is not None for a in arrivals) / last_done,
        "latency_ms": _latencies(arrivals),
        "requests_per_op": measured.delta["msg.request"] / ops,
        "peak_rss_mb": _peak_rss_mb(),
        "cpu_per_op_s": measured.meter.cpu_s / ops,
        "steal_frac": measured.meter.steal_frac,
    }


async def tcp_open(seed: int, seconds: float, traced: bool, oracle: bool) -> Dict[str, Any]:
    """*seconds* of the open loop at the reference rate."""
    rng = random.Random(seed)
    loop = asyncio.get_running_loop()
    cluster, setup = await _start_cluster()
    try:
        arrivals = keyed_schedule(rng, REFERENCE_RATE, 0.0, seconds, NET_CLIENTS, 0.0)
        async with _Pass(cluster, traced) as measured:
            await _run_open_loop(cluster, arrivals, loop.time() + GOSSIP_PERIOD)
        result = _measured(arrivals, setup, measured)
        if traced:
            result["layers"] = measured.layers(len(arrivals), arrivals)
        result["casualties"] = await _finish(cluster, oracle)
    finally:
        await cluster.stop()
    return result


async def tcp_capacity(seed: int, seconds: float, oracle: bool) -> Dict[str, Any]:
    """The capacity search on ``tcp-open``'s cluster and mix: step the
    offered rate up from the reference rate until p99 misses
    ``P99_LIMIT``, bisect the bracket, and interpolate the crossing."""
    rng = random.Random(seed)
    loop = asyncio.get_running_loop()
    cluster, _setup = await _start_cluster()
    end = loop.time() + seconds
    probes: List[tuple] = []
    attempted = failed = 0
    meter = Meter()
    try:
        rate: Optional[float] = REFERENCE_RATE * RATE_GROWTH
        while rate is not None and loop.time() + PROBE_SECONDS < end:
            arrivals = keyed_schedule(rng, rate, 0.0, PROBE_SECONDS, NET_CLIENTS, 0.0)
            with meter:
                await _run_open_loop(cluster, arrivals, loop.time() + GOSSIP_PERIOD)
            attempted += len(arrivals)
            failed += sum(a.failed for a in arrivals)
            if any(a.failed for a in arrivals):
                p99 = float("inf")
            else:
                # A search criterion, not a reported percentile: a probe
                # is too short for ten samples beyond its p99.
                p99 = percentile([a.latency for a in arrivals], 0.99, min_tail=0)
            probes.append((rate, p99))
            # Let an overloaded probe's backlog clear before the next one.
            while cluster.outstanding_operations():
                await asyncio.sleep(GOSSIP_PERIOD)
            await asyncio.sleep(4 * GOSSIP_PERIOD)
            rate = next_probe(probes, P99_LIMIT, RATE_GROWTH, REFINEMENTS)
        require(bool(probes), "no time left for the capacity search")
        casualties = await _finish(cluster, oracle)
    finally:
        await cluster.stop()
    return {
        "steal_frac": meter.steal_frac,
        "max_rate_ops_s": capacity(probes, P99_LIMIT),
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "casualties": casualties,
    }


async def tcp_strict_crash(seed: int, seconds: float, traced: bool, oracle: bool):
    """10% strict at a fixed rate for *seconds*; ``r1`` crashes and
    recovers mid-run."""
    rng = random.Random(seed)
    loop = asyncio.get_running_loop()
    cluster, setup = await _start_cluster()
    arrivals = keyed_schedule(
        rng, CRASH_RATE, 0.0, seconds, NET_CLIENTS, CRASH_STRICT_FRACTION
    )
    marks: Dict[str, float] = {}

    async def faults(origin: float) -> None:
        await asyncio.sleep(origin + CRASH_AT * seconds - loop.time())
        await cluster.crash_replica(CRASHED, volatile_memory=True)
        marks["crash"] = loop.time() - origin
        await asyncio.sleep(origin + RECOVER_AT * seconds - loop.time())
        await cluster.recover_replica(CRASHED)
        marks["recover"] = loop.time() - origin
        # Catch-up: until the recovered replica knows every surviving
        # operation requested so far stable.  Stability is monotone, so
        # each poll resumes where the previous one stopped.
        lost, stuck = classify_casualties(cluster)
        pending = surviving(cluster, lost, stuck)
        replica = cluster.replicas[CRASHED]
        deadline = loop.time() + CONVERGE_TIMEOUT
        while pending:
            while pending and replica.knows_stable(pending[-1]):
                pending.pop()
            if pending:
                require(loop.time() < deadline, f"{CRASHED} never caught up")
                await asyncio.sleep(SAMPLE_PERIOD / 2)
        marks["caught_up"] = loop.time() - origin

    try:
        async with _Pass(cluster, traced) as measured:
            origin = loop.time() + GOSSIP_PERIOD
            fault_task = loop.create_task(faults(origin))
            await _run_open_loop(cluster, arrivals, origin)
            await fault_task
        result = _measured(arrivals, setup, measured)
        after_crash = [
            a for a in arrivals if a.client == AFFECTED_CLIENT and a.due >= marks["crash"]
        ]
        result["outage_s"] = after_crash[0].done - marks["crash"]
        result["catchup_s"] = marks["caught_up"] - marks["recover"]
        result["casualties"] = await _finish(cluster, oracle)
        if traced:
            layers = measured.layers(len(arrivals), arrivals)
            layers["recovery.acked_lost_ops"] = result["casualties"]["lost"]
            result["layers"] = layers
    finally:
        await cluster.stop()
    return result
