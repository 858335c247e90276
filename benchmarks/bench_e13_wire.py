"""E13 — bytes on the wire: the binary codec measured, not estimated.

Every payload claim before this experiment (E8 delta/full, E11 advert
flatness) counted *op-refs* via ``size_estimate()``.  E13 re-states them in
**measured bytes**: the :class:`~repro.net.wire.WireCluster` twin pushes
every message of a seeded execution through :mod:`repro.net.codec` and
meters the frames, so the numbers below are exactly what would cross a
socket — and, with ``json_baseline=True``, what the same messages would
cost under a plain tagged-JSON encoding.

Three parts:

* **E13a** — eager full-state vs delta vs advert/pull gossip at n=4 and
  n=8 replicas under the identical seeded load: bytes per message kind,
  binary-vs-JSON ratio (the codec must stay ≥3× smaller), and the
  execution unchanged across modes.
* **E13b** — steady-state gossip *message size in bytes* vs history
  length: eager checkpoint shipping grows with history, advert stays flat
  (the byte-level restatement of E11).
* **E13c** — sustained closed-loop throughput over real TCP loopback
  sockets (n=4, 16 concurrent clients) on the base vs the raw-speed
  replica core, with convergence checked after the run.  Wall-clock
  throughput asserts are skipped when ``E13_TIMING_ASSERTS=0`` (CI
  machines aren't calibrated); the byte metrics are asserted everywhere.

Environment knobs: ``E13_SIM_OPS`` (E13a ops, default 400), ``E13_NET_OPS``
(E13c ops per client, default 200), ``E13_TIMING_ASSERTS`` (default on).
"""

import asyncio
import gc
import os

from repro.algorithm.checkpoint import CompactionPolicy
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.net.codec import encode_message
from repro.net.driver import LoadSpec, run_load
from repro.net.runtime import NetCluster, NetParams
from repro.net.wire import WireCluster
from repro.sim.cluster import SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, print_table

SIM_OPS = int(os.environ.get("E13_SIM_OPS", "400"))
NET_OPS = int(os.environ.get("E13_NET_OPS", "200"))
TIMING_ASSERTS = os.environ.get("E13_TIMING_ASSERTS", "1") != "0"
CLIENTS = [f"c{i}" for i in range(4)]
#: The acceptance bar: binary frames at most 1/3 the JSON bytes (≥3×).
MAX_BINARY_OVER_JSON = 1.0 / 3.0

MODES = ("full", "delta", "advert")


def mode_params(mode: str) -> SimulationParams:
    base = dict(batch_gossip=True, incremental_replay=True)
    if mode == "delta":
        base.update(delta_gossip=True, full_state_interval=8)
    elif mode != "full":
        base.update(
            delta_gossip=True, full_state_interval=8,
            compaction=CompactionPolicy(), compaction_interval=8.0,
            advert_gossip=True,
        )
    return SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, replica=ReplicaConfig(**base))


def run_mode(mode: str, num_replicas: int, total_ops: int = SIM_OPS, seed: int = 3):
    cluster = WireCluster(CounterType(), num_replicas, CLIENTS,
                          params=mode_params(mode), seed=seed, json_baseline=True)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=0.5, strict_fraction=0.05)
    run_workload(cluster, spec, seed=seed + 1)
    cluster.run_until_idle()
    stats = cluster.wire_stats
    completed = max(len(cluster.responded), 1)
    return {
        "responded": dict(cluster.responded),
        "total_bytes": stats.total_bytes,
        "total_json_bytes": stats.total_json_bytes,
        "gossip_bytes": stats.bytes_for("gossip", "pull", "transfer"),
        "bytes_by_kind": dict(stats.bytes_by_kind),
        "bytes_per_op": stats.total_bytes / completed,
        "binary_over_json": stats.total_bytes / max(stats.total_json_bytes, 1),
    }


def test_e13a_binary_codec_beats_json_and_delta_beats_full():
    outcomes = {}
    rows = []
    for n in (4, 8):
        for mode in MODES:
            outcome = run_mode(mode, n)
            outcomes[(n, mode)] = outcome
            rows.append((
                n, mode,
                f"{outcome['total_bytes']:,}",
                f"{outcome['gossip_bytes']:,}",
                f"{outcome['bytes_per_op']:.0f}",
                f"{outcome['binary_over_json']:.3f}",
            ))
    print_table(
        f"E13a: measured wire bytes by gossip mode ({SIM_OPS} ops, identical load)",
        ["replicas", "mode", "total B", "gossip-plane B", "B/op", "binary/json"],
        rows,
    )

    for n in (4, 8):
        # The wire format changes; the execution must not.
        assert outcomes[(n, "full")]["responded"] == outcomes[(n, "delta")]["responded"]
        assert outcomes[(n, "full")]["responded"] == outcomes[(n, "advert")]["responded"]
        for mode in MODES:
            ratio = outcomes[(n, mode)]["binary_over_json"]
            assert ratio <= MAX_BINARY_OVER_JSON, (
                f"binary codec only {1/ratio:.2f}x smaller than JSON "
                f"(n={n}, {mode}; need >= 3x)"
            )
        # Delta gossip ships fewer *bytes* than eager full state, not just
        # fewer op-refs — and the advert/pull plane stays below full too.
        assert (outcomes[(n, "delta")]["gossip_bytes"]
                < outcomes[(n, "full")]["gossip_bytes"])
        assert (outcomes[(n, "advert")]["gossip_bytes"]
                < outcomes[(n, "full")]["gossip_bytes"])

    _E13A_CACHE.update(outcomes)
    emit_bench_json("E13", e13a_metrics(outcomes))


def e13a_metrics(outcomes):
    metrics = {
        "sim_ops": SIM_OPS,
        "binary_over_json": {
            f"{mode}_n{n}": outcomes[(n, mode)]["binary_over_json"]
            for (n, mode) in outcomes
        },
        "bytes_per_op": {
            f"{mode}_n{n}": outcomes[(n, mode)]["bytes_per_op"]
            for (n, mode) in outcomes
        },
        "delta_over_full_gossip_bytes_n8": (
            outcomes[(8, "delta")]["gossip_bytes"]
            / outcomes[(8, "full")]["gossip_bytes"]
        ),
        "advert_over_full_gossip_bytes_n8": (
            outcomes[(8, "advert")]["gossip_bytes"]
            / outcomes[(8, "full")]["gossip_bytes"]
        ),
    }
    # E13b/E13c fill in their own keys on top (same BENCH file, see below).
    metrics.update(_E13B_METRICS)
    metrics.update(_E13C_METRICS)
    return metrics


#: Cross-test metric accumulators: pytest runs the three parts in file
#: order, and the LAST emit wins, so each part re-emits the merged dict.
_E13B_METRICS = {}
_E13C_METRICS = {}


def steady_gossip_bytes(total_ops: int, advert: bool, seed: int = 5) -> int:
    """Encoded size of a steady-state full-state gossip message after the
    history has quiesced and compacted (the E11 measurement, in bytes)."""
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            batch_gossip=True,
            incremental_replay=True,
            compaction=CompactionPolicy(min_batch=16, value_retention=None),
            compaction_interval=8.0,
            advert_gossip=advert,
        ),
    )
    cluster = WireCluster(CounterType(), 3, CLIENTS, params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=0.25, strict_fraction=0.05)
    run_workload(cluster, spec, seed=seed + 1)
    for _ in range(6):
        for replica in cluster.replicas.values():
            replica.maybe_compact(force=True)
        cluster.run(params.gossip_period + params.dg)
    return max(
        len(encode_message(cluster.replicas[rid].make_gossip()))
        for rid in cluster.replica_ids
    )


def test_e13b_advert_keeps_steady_state_bytes_flat():
    histories = (SIM_OPS, SIM_OPS * 4)
    eager = {total: steady_gossip_bytes(total, advert=False) for total in histories}
    advert = {total: steady_gossip_bytes(total, advert=True) for total in histories}
    print_table(
        "E13b: steady-state gossip message size in bytes, eager vs advert/pull",
        ["history", "eager B", "advert B"],
        [(total, f"{eager[total]:,}", f"{advert[total]:,}") for total in histories],
    )

    small, large = histories
    eager_growth = eager[large] / eager[small]
    advert_flatness = advert[large] / advert[small]
    assert eager_growth > 2.0, f"eager bytes grew only {eager_growth:.2f}x"
    assert advert_flatness < 2.0, f"advert bytes grew {advert_flatness:.2f}x"
    assert advert[large] < eager[large] / 5

    _E13B_METRICS.update({
        "steady_bytes_eager": {str(t): eager[t] for t in histories},
        "steady_bytes_advert": {str(t): advert[t] for t in histories},
        "eager_byte_growth_ratio": eager_growth,
        "advert_byte_flatness_ratio": advert_flatness,
    })
    emit_bench_json("E13", e13a_metrics_cached())


async def _tcp_run(fast_core: bool):
    params = NetParams(gossip_period=0.5, replica=ReplicaConfig(
        delta_gossip=True, incremental_replay=True, fast_core=fast_core,
    ))
    cluster = NetCluster(CounterType(), num_replicas=4,
                         client_ids=tuple(f"c{i}" for i in range(16)),
                         params=params, transport="tcp")
    async with cluster:
        report = await run_load(cluster, LoadSpec(operations_per_client=NET_OPS, seed=0))
        converged = await cluster.quiesce(timeout=120.0)
    return report, converged


def test_e13c_tcp_loopback_throughput():
    results = {}
    for fast in (True, False):
        # Collect the previous arm's cyclic garbage now: a gen-2 pass
        # landing mid-run stalls the event loop for hundreds of ms and
        # poisons the slower arm's latency tail.
        gc.collect()
        report, converged = asyncio.run(_tcp_run(fast))
        assert converged, "cluster failed to converge after the load"
        assert report.failures == 0
        results["fast" if fast else "base"] = report
    print_table(
        f"E13c: closed-loop TCP throughput, n=4, 16 clients x {NET_OPS} ops",
        ["core", "ops/s", "p50 ms", "p99 ms", "B/op sent"],
        [
            (
                label,
                f"{report.ops_per_sec:,.0f}",
                f"{report.latency_p50 * 1e3:.2f}",
                f"{report.latency_p99 * 1e3:.2f}",
                f"{report.bytes_per_op:,.0f}",
            )
            for label, report in results.items()
        ],
    )

    if TIMING_ASSERTS:
        assert results["fast"].ops_per_sec >= 2000, (
            f"fast core sustained only {results['fast'].ops_per_sec:.0f} ops/s "
            "over TCP loopback (need >= 2000)"
        )
        assert results["fast"].ops_per_sec > results["base"].ops_per_sec

    _E13C_METRICS.update({
        "tcp_ops_per_sec_fast": results["fast"].ops_per_sec,
        "tcp_ops_per_sec_base": results["base"].ops_per_sec,
        "tcp_fast_over_base": (
            results["fast"].ops_per_sec / max(results["base"].ops_per_sec, 1e-9)
        ),
        "tcp_bytes_per_op_fast": results["fast"].bytes_per_op,
        "tcp_p99_ms_fast": results["fast"].latency_p99 * 1e3,
    })
    emit_bench_json("E13", e13a_metrics_cached())


#: E13a's outcomes, cached so the later parts can re-emit the merged
#: metrics without re-running the sweep.
_E13A_CACHE = {}


def e13a_metrics_cached():
    if not _E13A_CACHE:
        for n in (4, 8):
            for mode in MODES:
                _E13A_CACHE[(n, mode)] = run_mode(mode, n)
    return e13a_metrics(_E13A_CACHE)
