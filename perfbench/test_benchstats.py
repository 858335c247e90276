"""Self-tests of the benchmark's own arithmetic (no program under test)."""

import math

import pytest

import tracing
from benchstats import (
    TooFewSamples,
    capacity,
    closure_error,
    next_probe,
    percentile,
    tail_count,
)
from tracing import Tracer


# -- percentiles ------------------------------------------------------------ #


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))  # 1..1000, given in reverse: order must not matter
    values.reverse()
    assert percentile(values, 0.50) == 500
    assert percentile(values, 0.99) == 990
    assert percentile(values, 0.95) == 950


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_count(1000, 0.99) == 10
    assert tail_count(999, 0.99) == 9
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 0.95)
    assert percentile(list(range(200)), 0.95) == 189


def test_percentile_tail_rule_can_be_waived_for_search_criteria():
    assert percentile([5.0, 1.0, 3.0], 0.99, min_tail=0) == 5.0


def test_median_needs_no_tail_but_needs_samples():
    assert percentile([3.0], 0.5) == 3.0
    with pytest.raises(TooFewSamples):
        percentile([], 0.5)


# -- traced breakdown --------------------------------------------------------- #


def _clocked_tracer():
    now = [0.0]
    return Tracer(clock=lambda: now[0]), now


def test_self_time_excludes_nested_spans():
    tracer, now = _clocked_tracer()

    def compact():
        now[0] += 2.0

    traced_compact = tracer.span("core.maybe_compact", compact)

    def ingest():
        now[0] += 1.0
        traced_compact()
        now[0] += 3.0

    tracer.span("core.receive_gossip_batch", ingest)()
    assert tracer.self_s == {"core.receive_gossip_batch": 4.0, "core.maybe_compact": 2.0}
    assert tracer.calls == {"core.receive_gossip_batch": 1, "core.maybe_compact": 1}


def test_breakdown_closes_on_wall_time():
    tracer, now = _clocked_tracer()

    def gossip():
        now[0] += 1.5

    traced_gossip = tracer.span("core.make_gossip", gossip)

    def step():
        now[0] += 0.5
        traced_gossip()

    tracer.span("sim.step", step)()
    layers = {k: v for k, v in tracer.self_s.items() if k != "sim.step"}
    # Parts: 1.5 s layer + 0.5 s other + 0.75 s idle + 0.25 s ready = 3.0 s.
    assert closure_error(layers, tracer.self_s["sim.step"], 0.75, 0.25, 3.0) == 0.0
    # Half a second the parts do not cover shows as a positive error ...
    assert closure_error(layers, 0.5, 0.75, 0.25, 3.5) == pytest.approx(0.5 / 3.5)
    # ... and time counted twice as a negative one.
    assert closure_error(layers, 0.5, 1.25, 0.25, 3.0) == pytest.approx(-0.5 / 3.0)


def test_wrap_shadows_and_restore_removes():
    class Core:
        def make_gossip(self):
            return "gossip"

    core = Core()
    tracer = Tracer()
    tracer.wrap(core, "make_gossip", "core.make_gossip")
    assert "make_gossip" in vars(core)
    assert core.make_gossip() == "gossip"
    tracer.restore()
    assert "make_gossip" not in vars(core)
    assert tracer.calls["core.make_gossip"] == 1


def test_meter_runs_without_proc_files(monkeypatch):
    """Run-queue wait and host steal read 0 where the kernel lacks the files."""
    monkeypatch.setattr(tracing, "_proc_fields", lambda path: [])
    meter = tracing.Meter()
    with meter:
        sum(range(1000))
    assert meter.wall_s > 0
    assert meter.ready_s == 0.0 and meter.steal_frac == 0.0
    assert tracing._proc_fields("/nonexistent/schedstat") == []


# -- capacity search ------------------------------------------------------------ #


def _knee(rate: float) -> float:
    """A synthetic p99 curve (seconds): flat 30 ms, then a sharp knee whose
    100 ms crossing is at exactly 260 ops/s."""
    if rate <= 240:
        return 0.030
    return 0.030 + (rate - 240) * 0.0035


def _search(curve, start=172.5, limit=0.100, growth=1.15, refinements=2):
    probes = []
    rate = start
    while rate is not None:
        probes.append((rate, curve(rate)))
        rate = next_probe(probes, limit, growth, refinements)
    return probes


def test_search_brackets_and_bisects_the_knee():
    probes = _search(_knee)
    rates = [rate for rate, _ in probes]
    # Geometric growth until the first miss, then exactly two bisections.
    assert rates[:4] == pytest.approx([172.5, 198.375, 228.13125, 262.3509375])
    assert len(rates) == 6
    assert rates[2] < rates[4] < rates[5] < rates[3]


def test_capacity_interpolates_the_crossing():
    probes = _search(_knee)
    assert capacity(probes, 0.100) == pytest.approx(260.0, rel=0.01)


def test_capacity_edge_cases():
    assert capacity([(100.0, 0.2)], 0.1) == 0.0
    assert capacity([(100.0, 0.05), (115.0, 0.06)], 0.1) == 115.0
    assert capacity([(100.0, 0.05), (115.0, math.inf)], 0.1) == 100.0
    # A failing probe below a passing one is the knee that counts.
    assert capacity([(100.0, 0.05), (120.0, 0.30), (140.0, 0.05)], 0.1) == pytest.approx(
        100.0 + 20.0 * (0.05 / 0.25)
    )


def test_search_stops_when_nothing_passes():
    assert next_probe([(172.5, 0.5)], 0.1, 1.15, 2) is None


# -- BENCHMARK.json ----------------------------------------------------------- #


def test_benchmark_json_lists_what_run_reports():
    import json
    import os

    import run

    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
