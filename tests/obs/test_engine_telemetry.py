"""Engine-selection telemetry: which engine ran a cell, and why.

Every ``TimingSimulator.run`` is attributed to exactly one engine —
the memoized replay (``compiled``) or a live run (``reference``: the
live walk, then the clock) — with a fallback *reason* whenever the
memoized replay was passed over. The counters are exposed through pull-model gauges
bound in ``repro.obs.adapters`` (the OBS002 discipline), so fleet
snapshots, Prometheus exposition, and progress records all read the
same attribution.
"""

import pickle
from contextlib import nullcontext

import pytest

import repro.obs as obs
from repro import fastpath
from repro.core import sanitizer
from repro.core.config import MachineConfig
from repro.evalx.runner import config_named
from repro.fastpath import EngineTelemetry
from repro.sim.simulator import TimingSimulator
from repro.sim.trace import Trace
from repro.workloads.synthetic import resident_trace


@pytest.fixture(autouse=True)
def _sanitizer_disarmed():
    """The attribution tests assert the compiled path *engages*, which an

    armed sanitizer (``REPRO_SANITIZE=1``) would legitimately prevent —
    that fallback has its own test below.
    """
    previous = sanitizer.active()
    sanitizer.disarm()
    yield
    if previous is not None:
        sanitizer.arm(previous)
    else:
        sanitizer.disarm()


def fresh_sim():
    return TimingSimulator(config_named("aise+bmt"))


class TestEngineTelemetryObject:
    def test_record_tracks_engines_and_reasons(self):
        t = EngineTelemetry()
        t.record(fastpath.ENGINE_COMPILED)
        t.record(fastpath.ENGINE_REFERENCE, "warm_caches")
        t.record(fastpath.ENGINE_REFERENCE, "obs_session")
        assert (t.compiled, t.reference) == (1, 2)
        assert t.runs == 3
        assert t.fallbacks == {"warm_caches": 1, "obs_session": 1}
        assert t.last_engine == fastpath.ENGINE_REFERENCE
        assert t.last_reason == "obs_session"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            EngineTelemetry().record("interpreter")

    def test_lowering_hit_rate(self):
        t = EngineTelemetry()
        assert t.lowering_hit_rate == 0.0
        t.record_lowering(False)
        t.record_lowering(True)
        assert t.lowering_hits == 1
        assert t.lowering_misses == 1
        assert t.lowering_hit_rate == 0.5


    def test_staged_lowerings_counted_apart_from_the_memo(self):
        t = EngineTelemetry()
        assert t.lowering_staged == 0
        t.record_staged_lowering()
        assert t.lowering_staged == 1
        assert t.lowering_hits + t.lowering_misses == 0

    def test_clock_probes(self):
        t = EngineTelemetry()
        t.record_clock(False)
        t.record_clock(True)
        t.record_clock(True)
        assert (t.clock_records, t.clock_hits) == (1, 2)


class TestRunAttribution:
    def test_cold_run_uses_compiled_no_reason(self):
        sim = fresh_sim()
        sim.run(resident_trace(3000), label="aise+bmt")
        t = sim.engine_telemetry
        assert t.runs == 1
        assert t.last_engine == fastpath.ENGINE_COMPILED
        assert t.last_reason is None
        assert t.fallbacks == {}

    def test_warm_rerun_falls_back_with_warm_caches(self):
        sim = fresh_sim()
        trace = resident_trace(3000)
        sim.run(trace, label="aise+bmt")
        sim.run(trace, label="aise+bmt")
        t = sim.engine_telemetry
        assert t.runs == 2
        assert t.last_engine == fastpath.ENGINE_REFERENCE
        assert t.last_reason == "warm_caches"
        assert t.fallbacks == {"warm_caches": 1}

    def test_fastpath_gate_off_reason(self):
        sim = fresh_sim()
        with fastpath.forced(False):
            sim.run(resident_trace(3000), label="aise+bmt")
        t = sim.engine_telemetry
        assert t.last_engine == fastpath.ENGINE_REFERENCE
        assert t.last_reason == "fastpath_gate_off"

    def test_obs_session_reason(self):
        sim = fresh_sim()
        with obs.observed():
            sim.run(resident_trace(3000), label="aise+bmt", collect_metrics=True)
        t = sim.engine_telemetry
        assert t.last_engine == fastpath.ENGINE_REFERENCE
        assert t.last_reason == "obs_session"

    def test_every_run_attributed_to_exactly_one_engine(self):
        sim = fresh_sim()
        trace = resident_trace(3000)
        with fastpath.forced(False):
            sim.run(trace, label="aise+bmt")
        sim2 = fresh_sim()
        sim2.run(trace, label="aise+bmt")
        sim2.run(trace, label="aise+bmt")  # warm: a live run
        for t, expected in ((sim.engine_telemetry, 1), (sim2.engine_telemetry, 2)):
            assert t.compiled + t.reference == t.runs == expected

    def test_reasons_come_from_the_published_vocabulary(self):
        sim = fresh_sim()
        trace = resident_trace(3000)
        sim.run(trace, label="aise+bmt")
        sim.run(trace, label="aise+bmt")
        with fastpath.forced(False):
            sim.run(trace, label="aise+bmt")
        for reason in sim.engine_telemetry.fallbacks:
            assert reason in fastpath.FALLBACK_REASONS


class TestLoweringMemo:
    def test_fresh_sim_on_lowered_trace_hits_memo(self):
        trace = resident_trace(3000)
        first = fresh_sim()
        first.run(trace, label="aise+bmt")
        assert first.engine_telemetry.lowering_misses == 1
        second = fresh_sim()
        second.run(trace, label="aise+bmt")
        t = second.engine_telemetry
        assert t.lowering_hits == 1
        assert t.lowering_misses == 0
        assert t.lowering_hit_rate == 1.0


class TestClockMemo:
    """``clock_records``/``clock_hits``: a lowering's second replay records
    its clock run, and a later replay at that timing point reads it."""

    def test_third_run_at_a_new_warmup_is_a_hit(self):
        sim = fresh_sim()
        trace = resident_trace(3000)
        for warmup in (0.25, 0.25, 0.4):
            sim.run(trace, label="aise+bmt", warmup=warmup)
            sim.reset_cold()
        t = sim.engine_telemetry
        assert (t.compiled, t.clock_records, t.clock_hits) == (3, 1, 1)
        snap = sim.registry.snapshot()
        assert snap["engine.clock_memo.records"] == 1
        assert snap["engine.clock_memo.hits"] == 1

    def test_gauges_kept_out_of_results(self):
        sim = fresh_sim()
        trace = resident_trace(3000)
        for warmup in (0.25, 0.3, 0.35):
            result = sim.run(trace, label="aise+bmt", warmup=warmup,
                             collect_metrics=True)
            sim.reset_cold()
        assert sim.engine_telemetry.clock_hits == 1
        assert result.metrics
        assert not any(name.startswith("engine.") for name in result.metrics)

    def test_an_obs_session_never_consults_the_memo(self):
        sim = fresh_sim()
        trace = resident_trace(3000)
        for _ in range(2):  # a first replay, then a recorded one
            sim.run(trace, label="aise+bmt")
            sim.reset_cold()
        with obs.observed():
            traced = sim.run(trace, label="aise+bmt", warmup=0.4)
        t = sim.engine_telemetry
        assert (t.last_engine, t.last_reason) == (fastpath.ENGINE_REFERENCE,
                                                  "obs_session")
        assert (t.clock_records, t.clock_hits) == (1, 0)
        fresh = fresh_sim().run(pickle.loads(pickle.dumps(trace)),
                                label="aise+bmt", warmup=0.4)
        assert traced.to_dict() == fresh.to_dict()


class TestStagedLowering:
    """``lowering_staged`` says how each lowering was built: once per
    lowering on the staged route, never per event, never on a memo hit."""

    def test_staged_route_counted_once_per_lowering(self):
        trace = resident_trace(3000)
        sim = TimingSimulator(config_named("aise"))
        sim.run(trace, label="aise")
        assert sim.engine_telemetry.lowering_misses == 1
        assert sim.engine_telemetry.lowering_staged == 1
        again = TimingSimulator(config_named("aise"))
        again.run(trace, label="aise")  # memo hit: nothing is lowered
        assert again.engine_telemetry.lowering_hits == 1
        assert again.engine_telemetry.lowering_staged == 0

    def test_tree_schemes_lower_sequentially(self):
        sim = fresh_sim()
        sim.run(resident_trace(3000), label="aise+bmt")
        assert sim.engine_telemetry.lowering_misses == 1
        assert sim.engine_telemetry.lowering_staged == 0

    def test_gauge_exposed_and_kept_out_of_results(self):
        sim = TimingSimulator(config_named("base"))
        result = sim.run(resident_trace(3000), label="base",
                         collect_metrics=True)
        assert sim.registry.snapshot()["engine.lowering_memo.staged"] == 1
        assert result.metrics
        assert not any(name.startswith("engine.") for name in result.metrics)


class TestRegistryExposure:
    def test_snapshot_carries_engine_metrics(self):
        sim = fresh_sim()
        sim.run(resident_trace(3000), label="aise+bmt")
        snap = sim.registry.snapshot()
        assert snap["engine.runs.compiled"] == 1
        assert snap["engine.runs.reference"] == 0
        assert snap["engine.fallback_reasons"] == {}
        assert snap["engine.lowering_memo.misses"] + snap["engine.lowering_memo.hits"] == 1
        assert snap["engine.lowering_memo.staged"] == 0  # aise+bmt walks a tree
        assert 0.0 <= snap["engine.lowering_memo.hit_rate"] <= 1.0
        assert snap["engine.clock_memo.records"] == 0  # replayed once
        assert snap["engine.clock_memo.hits"] == 0

    def test_telemetry_survives_warmup_stats_reset(self):
        # registry.reset() only zeroes push-model metrics; the telemetry
        # gauges are bound to the simulator-owned object, so the engine
        # attribution of the run that *contains* the reset survives it.
        sim = fresh_sim()
        sim.run(resident_trace(3000), label="aise+bmt", warmup=0.5)
        assert sim.engine_telemetry.runs == 1


class TestResultsUnchanged:
    def test_attribution_never_changes_arithmetic(self):
        trace = resident_trace(3000)
        fast = fresh_sim()
        compiled = fast.run(trace, label="aise+bmt")
        warm = fast.run(trace, label="aise+bmt")  # warm second run
        assert fast.engine_telemetry.last_engine == fastpath.ENGINE_REFERENCE
        ref = fresh_sim()
        with fastpath.forced(False):
            reference = ref.run(trace, label="aise+bmt")
            warm_reference = ref.run(trace, label="aise+bmt")
        assert compiled.to_dict() == reference.to_dict()
        assert warm.to_dict() == warm_reference.to_dict()


# For each fallback reason: (preset, trace events, warm the caches with a
# first run, context the measured run executes in).
_REASON_CASES = {
    "obs_session": ("aise+bmt", 3000, False, obs.observed),
    "fastpath_gate_off": ("aise+bmt", 3000, False, lambda: fastpath.forced(False)),
    "sanitizer_armed": ("aise+bmt", 3000, False, sanitizer.sanitized),
    "deferred_updates": ("aise+bmt_lazy", 3000, False, nullcontext),
    "warm_caches": ("aise+bmt", 3000, True, nullcontext),
    "empty_trace": ("aise+bmt", 0, False, nullcontext),
}


class TestEngineChoice:
    @pytest.mark.parametrize("reason", fastpath.FALLBACK_REASONS)
    def test_reason_sends_one_run_to_the_reference_loop(self, reason):
        preset, events, warm, context = _REASON_CASES[reason]
        trace = resident_trace(events) if events else Trace.from_lists([])

        def run(sim, context):
            if warm:
                sim.run(trace, label=preset)
            with context():
                return sim.run(trace, label=preset)

        sim = TimingSimulator(MachineConfig.preset(preset))
        result = run(sim, context)
        t = sim.engine_telemetry
        assert (t.compiled, t.reference) == (int(warm), 1)  # warm: run 1 replayed
        assert t.fallbacks == {reason: 1}
        assert (t.last_engine, t.last_reason) == (fastpath.ENGINE_REFERENCE, reason)

        with fastpath.forced(False):
            expected = run(TimingSimulator(MachineConfig.preset(preset)), nullcontext)
        assert result.to_dict() == expected.to_dict()
