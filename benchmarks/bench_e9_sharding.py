"""E9 — throughput scaling with the number of shards (service layer).

The paper's algorithm manages one replicated object; the sharded service
layer partitions a keyspace across independent ESDS replica groups.  This
experiment fixes the per-shard deployment (replicas, service time) and the
per-client offered load, scales the client population with the shard count,
and measures total committed-ops throughput: because shards never exchange
messages, capacity should grow monotonically from 1 to 4 shards — the
multiplicative scaling axis the single-object experiments (E1) cannot reach,
since adding replicas to one object adds gossip work along with capacity.

A second table contrasts uniform and zipfian key popularity at a fixed shard
count: skew concentrates load on the shard owning the hot keys, visible in
the per-shard throughput breakdown and the peak-to-mean imbalance metric.
"""

from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulationParams
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import KeyedWorkloadSpec, run_keyed_workload

from conftest import emit_bench_json, monotonically_nondecreasing, print_table

REPLICAS_PER_SHARD = 3
CLIENTS_PER_SHARD = 3
OPS_PER_CLIENT = 30
INTERARRIVAL = 0.8      # per client; offered load scales with the shard count
SERVICE_TIME = 0.4      # saturates a shard at ~2.5 ops/time unit
NUM_KEYS = 64


def run_shard_count(num_shards: int, seed: int = 0,
                    key_distribution: str = "uniform") -> "KeyedWorkloadResult":
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        service_time=SERVICE_TIME, frontend_policy="affinity",
        replica=ReplicaConfig(batch_gossip=True),
    )
    clients = [f"c{i}" for i in range(CLIENTS_PER_SHARD * num_shards)]
    cluster = ShardedCluster(
        CounterType(), num_shards=num_shards, replicas_per_shard=REPLICAS_PER_SHARD,
        client_ids=clients, params=params, seed=seed,
    )
    spec = KeyedWorkloadSpec(
        operations_per_client=OPS_PER_CLIENT, mean_interarrival=INTERARRIVAL,
        strict_fraction=0.0, num_keys=NUM_KEYS, key_distribution=key_distribution,
        zipf_exponent=1.5,
    )
    return run_keyed_workload(cluster, spec, seed=seed + 1, drain_time=2_000.0)


def test_e9_throughput_scales_with_shards(benchmark):
    counts = [1, 2, 4]
    results = {n: run_shard_count(n) for n in counts}

    rows = []
    for n in counts:
        result = results[n]
        speedup = result.throughput / results[counts[0]].throughput
        rows.append((
            str(n),
            f"{result.throughput:.2f}",
            f"{speedup:.2f}x",
            f"{result.metrics.imbalance():.2f}",
        ))
    print_table(
        "E9: total committed-ops throughput vs number of shards "
        f"({REPLICAS_PER_SHARD} replicas/shard, saturating uniform-key load)",
        ["shards", "throughput (ops/time)", "vs 1 shard", "peak/mean"],
        rows,
    )

    # Every submitted operation must complete (the drain phase is generous).
    for result in results.values():
        assert result.cluster.outstanding_operations() == 0

    # The acceptance shape: total throughput increases monotonically from
    # 1 to 4 shards at fixed replicas-per-shard.
    series = [results[n].throughput for n in counts]
    assert monotonically_nondecreasing(series, slack=0.0)
    assert series[-1] > series[0] * 2.0  # 4 shards ≥ 2x one shard

    # Key skew: zipfian keys concentrate load on fewer shards.
    skewed = run_shard_count(4, key_distribution="zipfian")
    uniform = results[4]
    per_shard = skewed.throughput_by_shard()
    print_table(
        "E9b: per-shard throughput at 4 shards, uniform vs zipfian keys",
        ["shard", "uniform", "zipfian"],
        [
            (sid, f"{uniform.throughput_by_shard()[sid]:.2f}", f"{per_shard[sid]:.2f}")
            for sid in sorted(per_shard)
        ],
    )
    print(f"imbalance: uniform {uniform.metrics.imbalance():.2f}, "
          f"zipfian {skewed.metrics.imbalance():.2f}")
    assert skewed.metrics.imbalance() >= uniform.metrics.imbalance()

    emit_bench_json("E9", {
        "throughput_by_shards": {n: results[n].throughput for n in counts},
        "speedup_1_to_4": series[-1] / series[0],
        "imbalance_uniform": uniform.metrics.imbalance(),
        "imbalance_zipfian": skewed.metrics.imbalance(),
        "peak_tracked_ops": {n: results[n].metrics.peak_tracked_ops() for n in counts},
    })

    # Wall-clock measurement of one representative configuration.
    benchmark(run_shard_count, 2, 1)
