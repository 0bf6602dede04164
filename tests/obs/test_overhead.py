"""Disabled-mode overhead guard: hooks must be near-free when obs is off.

Two complementary checks:

* micro-benchmarks of the exact disabled-path operations the hot loops
  execute (``obs.emit`` early return, ``obs.span`` null object, the
  ``hooks is not None`` guard shape) with deliberately generous bounds —
  they catch an accidental "always build the event dict" regression by an
  order of magnitude, not scheduler noise;
* a structural assertion that a disabled-mode simulation run leaves no
  observability residue (no hooks installed, no events recorded), which
  is what actually guarantees result bit-identity.
"""

import time

import repro.obs as obs
from repro.evalx.runner import config_named
from repro.sim.simulator import TimingSimulator
from repro.workloads.synthetic import resident_trace

ROUNDS = 50_000
# Generous per-call ceiling (seconds). The real disabled path is tens of
# nanoseconds; 5 microseconds only trips if someone makes it do real work.
CEILING = 5e-6


def best_of(fn, repeats=5):
    """Best-of-N timing: immune to one-off scheduler hiccups."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestDisabledPathMicrobench:
    def test_emit_is_cheap_when_disabled(self):
        assert not obs.enabled()

        def loop():
            for _ in range(ROUNDS):
                obs.emit("l2_miss", ts=1.0, addr=64)

        assert best_of(loop) / ROUNDS < CEILING

    def test_span_is_cheap_when_disabled(self):
        assert not obs.enabled()

        def loop():
            for _ in range(ROUNDS):
                with obs.span("verify_bmt"):
                    pass

        assert best_of(loop) / ROUNDS < CEILING

    def test_none_guard_is_cheap(self):
        # The shape the simulator's inner loop uses: a local None check.
        hooks = None

        def loop():
            for _ in range(ROUNDS):
                if hooks is not None:
                    raise AssertionError

        assert best_of(loop) / ROUNDS < CEILING


class TestDisabledRunLeavesNoResidue:
    def test_no_hooks_no_events_no_metrics(self):
        assert not obs.enabled()
        sim = TimingSimulator(config_named("aise+bmt"))
        result = sim.run(resident_trace(4000), label="aise+bmt")
        assert result.metrics == {}
        # The registry exists (pull-model, zero hot-path cost) but holds
        # no push-model residue a future enabled run could inherit.
        assert sim.registry.read("sim.miss_latency")["count"] == 0


class TestEngineTelemetryOverhead:
    """The engine-selection counters cost O(runs), never O(events)."""

    def test_counters_scale_with_runs_not_events(self):
        import pytest

        from repro.core import sanitizer

        if sanitizer.active() is not None:
            pytest.skip("armed sanitizer skips the lowering-memo probe")
        sim = TimingSimulator(config_named("aise+bmt"))
        sim.run(resident_trace(8000), label="aise+bmt")
        t = sim.engine_telemetry
        # One engine decision, one memo probe — regardless of how many
        # events the trace carried.
        assert t.runs == 1
        assert t.lowering_hits + t.lowering_misses == 1

    def test_record_is_cheap(self):
        from repro.fastpath import ENGINE_REFERENCE, EngineTelemetry

        t = EngineTelemetry()

        def loop():
            for _ in range(ROUNDS):
                t.record(ENGINE_REFERENCE, "warm_caches")

        assert best_of(loop) / ROUNDS < CEILING

    def test_disabled_mode_result_carries_no_telemetry(self):
        # The telemetry lives on the simulator and in fleet captures;
        # the SimResult (the byte-identity surface) never sees it.
        sim = TimingSimulator(config_named("aise+bmt"))
        result = sim.run(resident_trace(4000), label="aise+bmt",
                         collect_metrics=True)
        assert not any(name.startswith("engine.") for name in result.metrics)
        assert "engine.runs.compiled" in sim.registry.snapshot()
