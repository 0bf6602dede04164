"""Timing simulator: mechanism-level checks and paper-shape orderings."""

import pytest

from repro.core.config import MachineConfig
from repro.sim.simulator import TimingSimulator, simulate
from repro.sim.trace import OP_READ, OP_WRITE, Trace
from repro.workloads.synthetic import pointer_chase_trace, resident_trace, streaming_trace


def run(config, trace, warmup=0.0, overlap=0.7):
    return TimingSimulator(config, overlap=overlap).run(trace, warmup=warmup)


class TestBaselineMechanics:
    def test_hits_are_cheap(self):
        trace = Trace.from_lists([(0, OP_READ, 0)] * 100)
        result = run(MachineConfig.preset("base"), trace)
        # One cold miss, then 99 hits at L2 latency.
        assert result.l2_misses == 1
        assert result.cycles < 100 * 30

    def test_misses_pay_memory_latency(self):
        cold = Trace.from_lists([(0, OP_READ, i * 64) for i in range(100)])
        warm = Trace.from_lists([(0, OP_READ, 0)] * 100)
        assert run(MachineConfig.preset("base"), cold).cycles > run(MachineConfig.preset("base"), warm).cycles * 3

    def test_deterministic(self):
        trace = streaming_trace(2000, 1 << 20, seed=3)
        a = run(MachineConfig.preset("aise+bmt"), trace)
        b = run(MachineConfig.preset("aise+bmt"), trace)
        assert a.cycles == b.cycles

    def test_miss_rate_reporting(self):
        trace = Trace.from_lists([(0, OP_READ, i * 64) for i in range(50)] * 2)
        result = run(MachineConfig.preset("base"), trace)
        assert result.l2_accesses == 100
        assert result.l2_misses == 50
        assert result.l2_miss_rate == pytest.approx(0.5)

    def test_warmup_excludes_cold_misses(self):
        trace = Trace.from_lists([(0, OP_READ, i % 10 * 64) for i in range(1000)])
        result = run(MachineConfig.preset("base"), trace, warmup=0.5)
        assert result.l2_misses == 0  # all 10 blocks warmed

    def test_instructions_counted_post_warmup(self):
        trace = Trace.from_lists([(9, OP_READ, 0)] * 100)
        result = run(MachineConfig.preset("base"), trace, warmup=0.5)
        assert result.instructions == 50 * 10

    def test_writes_cause_writebacks(self):
        # Write 1000 distinct blocks through a small set of L2 sets, then
        # stream reads to force dirty evictions.
        events = [(0, OP_WRITE, i * 64) for i in range(20000)]
        result = run(MachineConfig.preset("base"), Trace.from_lists(events))
        assert result.bus_transfers_by_kind.get("data_wb", 0) > 0


class TestEncryptionTiming:
    def test_counter_hit_hides_decryption(self):
        """Sequential blocks share an AISE counter block: after the first
        miss per page the pad is overlapped — near-zero exposure."""
        trace = streaming_trace(5000, 4 << 20, seed=1)
        result = run(MachineConfig.preset("aise+bmt"), trace)
        exposure_per_miss = result.exposed_decrypt_cycles / max(1, result.l2_misses)
        assert exposure_per_miss < 15

    def test_random_access_exposes_more_for_global64(self):
        trace = pointer_chase_trace(5000, 8 << 20, seed=2)
        aise = run(MachineConfig(encryption="aise", integrity="none"), trace)
        g64 = run(MachineConfig(encryption="global64", integrity="none"), trace)
        assert g64.exposed_decrypt_cycles >= aise.exposed_decrypt_cycles

    def test_direct_encryption_always_exposed(self):
        trace = streaming_trace(2000, 4 << 20, seed=1)
        direct = run(MachineConfig(encryption="direct", integrity="none"), trace)
        assert direct.exposed_decrypt_cycles == pytest.approx(80 * direct.l2_misses)

    def test_counter_cache_reach_ordering(self):
        """AISE counter blocks cover 8x more data than global64's."""
        trace = streaming_trace(8000, 8 << 20, seed=4)
        aise = run(MachineConfig(encryption="aise", integrity="none"), trace)
        g64 = run(MachineConfig(encryption="global64", integrity="none"), trace)
        assert aise.counter_misses < g64.counter_misses

    def test_unprotected_has_no_counter_traffic(self):
        trace = streaming_trace(1000, 1 << 20)
        result = run(MachineConfig.preset("base"), trace)
        assert result.counter_accesses == 0
        assert result.exposed_decrypt_cycles == 0


class TestIntegrityTiming:
    def test_merkle_walk_generates_node_traffic(self):
        trace = streaming_trace(3000, 4 << 20, seed=5)
        result = run(MachineConfig(encryption="aise", integrity="merkle"), trace)
        assert result.bus_transfers_by_kind.get("merkle", 0) > 0

    def test_bmt_fetches_uncached_macs_every_miss(self):
        trace = pointer_chase_trace(3000, 8 << 20, seed=6)
        result = run(MachineConfig.preset("aise+bmt"), trace)
        assert result.bus_transfers_by_kind.get("mac", 0) >= result.l2_misses * 0.9

    def test_mt_pollutes_l2_bmt_does_not(self):
        trace = streaming_trace(20000, 4 << 20, seed=7)
        mt = run(MachineConfig(encryption="aise", integrity="merkle"), trace)
        bmt = run(MachineConfig.preset("aise+bmt"), trace)
        assert mt.l2_merkle_fraction > 0.10
        assert bmt.l2_merkle_fraction < 0.05
        assert bmt.l2_data_fraction > mt.l2_data_fraction

    def test_bmt_ablation_caching_data_macs_pollutes(self):
        """cache_data_macs=True re-introduces MAC pollution (section 5.2
        explains why BMT deliberately does not cache them)."""
        trace = streaming_trace(20000, 4 << 20, seed=8)
        default = run(MachineConfig.preset("aise+bmt"), trace)
        cached = run(MachineConfig.preset("aise+bmt", cache_data_macs=True), trace)
        assert cached.l2_merkle_fraction > default.l2_merkle_fraction


class TestPaperOrderings:
    """The headline comparisons, on one memory-bound synthetic workload."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.workloads.synthetic import WorkloadProfile, generate_trace

        profile = WorkloadProfile("hotcold", hot_bytes=896 * 1024, cold_bytes=4 << 20,
                                  hot_fraction=0.7, chunk_blocks=8, write_fraction=0.3,
                                  mean_gap=8)
        trace = generate_trace(profile, 40_000, seed=11)
        configs = {
            "base": MachineConfig.preset("base"),
            "aise": MachineConfig(encryption="aise", integrity="none"),
            "global64": MachineConfig(encryption="global64", integrity="none"),
            "aise+mt": MachineConfig(encryption="aise", integrity="merkle"),
            "aise+bmt": MachineConfig.preset("aise+bmt"),
            "g64+mt": MachineConfig.preset("global64+mt"),
        }
        return {label: TimingSimulator(cfg).run(trace, warmup=0.25)
                for label, cfg in configs.items()}

    def test_everything_slower_than_base(self, results):
        for label, result in results.items():
            if label != "base":
                assert result.cycles >= results["base"].cycles, label

    def test_aise_beats_global64(self, results):
        assert results["aise"].cycles < results["global64"].cycles

    def test_bmt_beats_mt(self, results):
        assert results["aise+bmt"].cycles < results["aise+mt"].cycles

    def test_proposal_beats_prior_art(self, results):
        """Figure 6: AISE+BMT << global64+MT."""
        base = results["base"]
        proposal = results["aise+bmt"].overhead_vs(base)
        prior = results["g64+mt"].overhead_vs(base)
        assert proposal < prior / 3

    def test_bmt_overhead_is_small(self, results):
        assert results["aise+bmt"].overhead_vs(results["base"]) < 0.10

    def test_mt_raises_miss_rate_bmt_barely(self, results):
        """Figure 10a shape."""
        base, mt, bmt = (results[k].l2_miss_rate for k in ("base", "aise+mt", "aise+bmt"))
        assert mt > base + 0.02
        assert abs(bmt - base) < 0.02

    def test_bus_utilization_ordering(self, results):
        """Figure 10b shape."""
        base, mt, bmt = (results[k].bus_utilization for k in ("base", "aise+mt", "aise+bmt"))
        assert base < bmt < mt


class TestOneShotHelper:
    def test_simulate_function(self):
        result = simulate(resident_trace(1000), MachineConfig.preset("aise+bmt"), label="check")
        assert result.config_label == "check"
        assert result.cycles > 0
