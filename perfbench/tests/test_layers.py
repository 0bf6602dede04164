"""Layer-coverage self-test: the layer table in ``perfbench/README.md`` holds.

Each workload runs a short traced run (a few steps), and the test checks
which layers it does and does not reach, that its outputs are correct,
and that p50 and p90 fall inside the tiers each mix was designed for.

    PYTHONPATH=src python -m pytest perfbench/tests -q     # about a minute
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from perfbench import run
from perfbench.harness import Harness, tier_counts

run._import_program()

SEED = 7
STEPS = {"fig6_cold": 2, "service_mixed": 19, "secure_os": 40}
SERVICE_LAYERS = ("service.lru.hit_ratio", "service.pool.reuse_ratio",
                  "service.flight.coalesced", "service.wait_s",
                  "api.schema.wire.self_s", "evalx.cache.get.self_s",
                  "sim.reset_cold.self_s")
OS_LAYERS = ("core.machine.read_block.self_s", "core.machine.write_block.self_s",
             "crypto.pad.self_s", "integrity.verify.self_s",
             "integrity.update.self_s", "osmodel.swap.calls",
             "osmodel.fault_ratio", "osmodel.tlb.hit_ratio")
TIMING_LAYERS = ("fastpath.replay.self_s", "sim.run.self_s")

_traced: dict = {}


def traced(name: str):
    """(metric values, failed ops, detail) of a short traced run."""
    if name not in _traced:
        metrics, _attempted, failed, detail = run.run_traced(
            name, SEED, seconds=0, max_steps=STEPS[name])
        _traced[name] = ({key: value for key, (value, _unit) in metrics.items()},
                         failed, detail)
    return _traced[name]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads())


@pytest.mark.parametrize("name", sorted(STEPS))
def test_traced_run_reports_every_layer_metric(name):
    metrics, failed, _detail = traced(name)
    assert failed == 0
    assert set(metrics) == set(run.PER_LAYER_UNITS)


def test_fig6_cold_layers():
    metrics, _failed, detail = traced("fig6_cold")
    cells = detail["traced"]["ops"]
    assert cells == 7 * STEPS["fig6_cold"]
    assert metrics["fastpath.lower.calls"] == cells  # one lowering per cell
    assert metrics["fastpath.lower.hit_ratio"] == 0.0
    assert metrics["fastpath.per_event.calls"] == 0
    assert metrics["fastpath.per_event.self_s"] == 0
    assert metrics["crypto.pad.calls"] == 0
    for layer in ("workloads.generate.self_s", "fastpath.lower.self_s",
                  "evalx.run_cells.self_s") + TIMING_LAYERS:
        assert metrics[layer] > 0, layer
    for layer in SERVICE_LAYERS + OS_LAYERS:
        assert metrics[layer] == 0, layer


def test_service_mixed_layers():
    metrics, _failed, _detail = traced("service_mixed")
    # Lowering was paid in set-up; lazy cells run on the per-event engine.
    assert metrics["fastpath.lower.calls"] == 0
    assert metrics["fastpath.lower.hit_ratio"] == 1.0
    assert metrics["fastpath.per_event.calls"] > 0
    assert metrics["crypto.pad.calls"] == 0
    assert metrics["workloads.generate.self_s"] == 0
    assert metrics["evalx.run_cells.self_s"] == 0
    for layer in ("fastpath.per_event.self_s", "evalx.cache.hit_ratio") \
            + TIMING_LAYERS + SERVICE_LAYERS:
        assert metrics[layer] > 0, layer
    for layer in OS_LAYERS:
        assert metrics[layer] == 0, layer


def test_secure_os_layers():
    metrics, _failed, detail = traced("secure_os")
    assert metrics["crypto.pad.calls"] > 0
    assert metrics["fastpath.lower.calls"] == 0
    assert metrics["fastpath.per_event.calls"] == 0
    for layer in OS_LAYERS:
        assert metrics[layer] > 0, layer
    for layer in ("workloads.generate.self_s", "fastpath.lower.self_s",
                  "evalx.run_cells.self_s", "fastpath.per_event.self_s") \
            + TIMING_LAYERS + SERVICE_LAYERS:
        assert metrics[layer] == 0, layer
    assert detail["traced"]["tiers"]["tamper"] >= 1


def test_secure_os_mix_holds_over_a_long_run():
    """Tamper probes must not drain the swapped cold pages: every round
    keeps its designed slice mix, however many rounds a run takes."""
    from perfbench.secure_os import SLICES

    rounds = 200
    workload = run.workloads()["secure_os"](run.ROOT)
    harness = Harness(workload, SEED)
    ctx, _norm, _raw = harness.setup(repeats=1)
    try:
        phase = harness.measure(ctx, 0, max_steps=rounds * workload.round_steps)
    finally:
        workload.close(ctx)
    assert all(op.ok for op in phase.ops)
    assert tier_counts(phase.ops) == {kind: count * rounds for kind, count in SLICES}
    assert ctx["probes"] == ctx["detected"] == rounds


def _main_tier_near(ops, quantile: float) -> str:
    """The most common tier among the ops ranked within 5% of ``quantile``.

    Tiers overlap at their edges when the host's speed drifts within a
    run, so the ops right at a quantile may include a few of the
    neighbouring tier; the designed tier must still hold the majority.
    """
    ranked = sorted(ops, key=lambda op: op.seconds)
    at = round(quantile * (len(ranked) - 1))
    width = max(2, len(ranked) // 20)
    near = Counter(op.tier for op in ranked[max(0, at - width):at + width + 1])
    return near.most_common(1)[0][0]


@pytest.mark.parametrize("name, steps, p50_tier, p90_tier", [
    ("service_mixed", 38, "replay", "lazy"),
    ("secure_os", 200, "resident", "faulting"),
])
def test_quantiles_fall_inside_their_tiers(name, steps, p50_tier, p90_tier):
    workload = run.workloads()[name](run.ROOT)
    harness = Harness(workload, SEED)
    ctx, _norm, _raw = harness.setup(repeats=1)
    try:
        phase = harness.measure(ctx, 0, max_steps=steps)
    finally:
        workload.close(ctx)
    assert all(op.ok for op in phase.ops)
    assert _main_tier_near(phase.ops, 0.5) == p50_tier
    assert _main_tier_near(phase.ops, 0.9) == p90_tier
