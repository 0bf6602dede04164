"""Observability wired through the timing simulator and functional models.

The load-bearing guarantees, each tested directly:

* enabling observation changes NO reported number (bit-identity);
* warmup never leaks: traced events correspond 1:1 to measured stats,
  and the tracer clock restarts at the warmup boundary (and again on
  every warm-reuse ``run()``);
* interval snapshots reconstruct the aggregate SimResult exactly — the
  final sample IS the aggregate, so a Figure 9 timeline ends on the
  figure's reported value;
* the kernel and BMT verifier emit their events/spans through the
  ambient API;
* SimResult's JSON round-trip stays lossless with metrics attached.
"""

import json

import repro.obs as obs
from repro.evalx.runner import config_named
from repro.mem.layout import PAGE_SIZE
from repro.obs.tracer import ListSink, EventTracer
from repro.sim.results import SimResult
from repro.sim.simulator import TimingSimulator
from repro.workloads.synthetic import (
    pointer_chase_trace,
    resident_trace,
    streaming_trace,
)

from ..conftest import make_machine

CFG = "aise+bmt"
EVENTS = 8000


def traced_run(trace, interval=512, label=CFG, warmup=0.25):
    with obs.observed(tracer=EventTracer(ListSink()),
                      interval=interval) as session:
        sim = TimingSimulator(config_named(label))
        result = sim.run(trace, label=label, warmup=warmup,
                         collect_metrics=True)
    return sim, result, session


class TestBitIdentity:
    def test_enabled_run_matches_disabled_run_exactly(self):
        trace = streaming_trace(EVENTS, 4 << 20)
        plain = TimingSimulator(config_named(CFG)).run(trace, label=CFG)
        _, traced, _ = traced_run(trace)
        expected = plain.to_dict()
        actual = traced.to_dict()
        assert actual.pop("metrics")  # attached, and non-empty
        assert actual == expected  # every other field bit-identical

    def test_metrics_only_attached_when_requested(self):
        trace = resident_trace(3000)
        with obs.observed():
            result = TimingSimulator(config_named(CFG)).run(trace, label=CFG)
        assert result.metrics == {}


class TestWarmupIsolation:
    def test_events_match_measured_stats_exactly(self):
        # The leak-proof: if any warmup event escaped, these counts
        # could not equal the (warmup-excluded) SimResult statistics.
        trace = streaming_trace(EVENTS, 4 << 20)
        _, result, session = traced_run(trace)
        events = session.tracer.events()
        by_name = {}
        for event in events:
            by_name.setdefault(event.name, []).append(event)
        assert len(by_name["l2_miss"]) == result.l2_misses > 0
        assert len(by_name["counter_miss"]) == result.counter_misses > 0
        assert all(e.ts >= 0.0 for e in events)

    def test_histogram_counts_measured_misses_only(self):
        trace = streaming_trace(EVENTS, 4 << 20)
        _, result, _ = traced_run(trace)
        hist = result.metrics["sim.miss_latency"]
        assert hist["count"] == result.l2_misses
        assert sum(hist["counts"]) == hist["count"]

    def test_warm_reuse_rebases_tracer_clock(self):
        # Touch more distinct blocks than the 1 MiB L2 holds so even the
        # warm rerun keeps missing (a cacheable trace would go silent
        # once L2 holds it: 24000 events x 64 B = 1.5 MiB touched).
        trace = pointer_chase_trace(24_000, 4 << 20)
        with obs.observed(tracer=EventTracer(ListSink())) as session:
            sim = TimingSimulator(config_named(CFG))
            sim.run(trace, label=CFG)
            first_end = max(e.ts for e in session.tracer.events())
            session.tracer.clear()
            sim.run(trace, label=CFG)  # warm caches, fresh clock
        second = session.tracer.events()
        assert second, "warm run should still trace"
        # Rebasing anchors the second measured interval at ~0, far below
        # where an unrebased clock (continuing past run 1) would start.
        assert min(e.ts for e in second) < first_end

    def test_no_events_at_negative_time_across_intervals(self):
        _, _, session = traced_run(streaming_trace(EVENTS, 4 << 20))
        assert all(s["ts"] >= 0.0 for s in session.samples)


class TestIntervalSnapshots:
    def test_final_sample_reproduces_figure9_exactly(self):
        # Figure 9 plots L2 data vs Merkle occupancy. The snapshots are
        # cumulative, so the last sample must equal the aggregate — the
        # issue's 0.1% tolerance is met with equality to spare.
        _, result, session = traced_run(streaming_trace(EVENTS, 4 << 20))
        final = session.samples[-1]
        assert final["l2.occupancy.data"] == result.l2_data_fraction
        merkle = final["l2.occupancy.merkle"] + final["l2.occupancy.mac"]
        assert merkle == result.l2_merkle_fraction
        assert final["sim.demand_misses"] == result.l2_misses
        assert final["bus.transfers_by_kind"] == result.bus_transfers_by_kind

    def test_final_sample_of_a_deferred_tree_is_its_result(self):
        # bmt_lazy's end-of-run drain settles before the final sample, so
        # that sample is the aggregate too. The conflict trace of the
        # trace golden leaves walks queued at the end of the run.
        from tests.obs.test_trace_golden import golden

        with obs.observed(interval=512) as session:
            result = TimingSimulator(config_named("aise+bmt_lazy")).run(
                golden.conflict_trace(), collect_metrics=True)
        assert result.metrics["sim.tree_drains"] > 0
        final = session.samples[-1]
        assert {name: final[name] for name in result.metrics} == result.metrics

    def test_sampling_interval_respected(self):
        _, _, session = traced_run(streaming_trace(EVENTS, 4 << 20),
                                   interval=500)
        # t=0 sample + one per 500 measured events + final sample.
        measured = EVENTS - int(EVENTS * 0.25)
        assert len(session.samples) == 2 + measured // 500
        assert session.samples[0]["events"] == 0
        assert session.samples[1]["events"] == 500

    def test_samples_are_monotone_in_time_and_counts(self):
        _, _, session = traced_run(streaming_trace(EVENTS, 4 << 20))
        ts = [s["ts"] for s in session.samples]
        misses = [s["sim.demand_misses"] for s in session.samples]
        assert ts == sorted(ts)
        assert misses == sorted(misses)


class TestFunctionalModelEvents:
    def test_kernel_swaps_emit_events(self):
        machine = make_machine(data_bytes=16 * 4096, swap_bytes=64 * 4096)
        from repro.osmodel import Kernel

        kernel = Kernel(machine, swap_slots=64)
        with obs.observed() as session:
            hog = kernel.create_process("hog")
            kernel.mmap(hog.pid, 0x100000, 20)  # 20 pages > 16 frames
            for i in range(20):
                kernel.write(hog.pid, 0x100000 + i * PAGE_SIZE, bytes([i]) * 64)
            for i in range(20):
                kernel.read(hog.pid, 0x100000 + i * PAGE_SIZE, 64)
        names = [e.name for e in session.tracer.events()]
        assert names.count("swap_out") == kernel.stats.swap_outs > 0
        assert names.count("swap_in") == kernel.stats.swap_ins > 0

    def test_bmt_verification_wrapped_in_span(self):
        machine = make_machine(data_bytes=16 * 4096)
        machine.write_block(0, b"\x42" * 64)
        # Evict the engine's counter-block cache (as a real bounded cache
        # would) so the read must re-fetch — and re-verify — the counter.
        machine.encryption._cache.clear()
        with obs.observed() as session:
            machine.read_block(0)
        phases = session.profiler.snapshot()
        assert phases.get("verify_bmt", {}).get("count", 0) > 0


class TestSimResultRoundTrip:
    def test_lossless_with_transfers_and_metrics(self):
        _, result, _ = traced_run(streaming_trace(EVENTS, 4 << 20))
        assert result.bus_transfers_by_kind  # non-empty by construction
        assert result.metrics
        rebuilt = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert rebuilt.metrics == result.metrics

    def test_metrics_key_omitted_when_empty(self):
        result = TimingSimulator(config_named(CFG)).run(
            resident_trace(2000), label=CFG
        )
        data = result.to_dict()
        assert "metrics" not in data
        assert SimResult.from_dict(data) == result
