"""Deeper timing-model mechanics: writeback chains, metadata dirtiness,
occupancy sampling, and cross-configuration invariants."""

import gc
import weakref

import pytest

from repro import fastpath

from repro.core.config import MachineConfig
from repro.fastpath.walk import miss_walk
from repro.sim.simulator import TimingSimulator
from repro.sim.trace import OP_READ, OP_WRITE, Trace
from repro.workloads.synthetic import WorkloadProfile, generate_trace


def write_stream(blocks: int, stride: int = 64) -> Trace:
    return Trace.from_lists([(0, OP_WRITE, i * stride) for i in range(blocks)])


class TestWritebackChains:
    def test_dirty_data_eviction_writes_counters(self):
        """Evicted dirty data bumps its counter: the counter cache sees
        write traffic and eventually writes counter blocks back."""
        sim = TimingSimulator(MachineConfig(encryption="aise", integrity="none"))
        # 40k distinct dirty blocks >> L2: lots of dirty evictions across
        # many pages >> counter cache: dirty counter evictions too.
        sim.run(write_stream(40_000), warmup=0.0)
        kinds = sim.bus.stats.transfers_by_kind
        assert kinds.get("data_wb", 0) > 0
        assert kinds.get("counter_wb", 0) > 0

    def test_counter_writebacks_update_the_tree(self):
        sim = TimingSimulator(MachineConfig.preset("aise+bmt"))
        sim.run(write_stream(40_000), warmup=0.0)
        kinds = sim.bus.stats.transfers_by_kind
        # Dirty counter blocks leave through the bonsai tree: node
        # fetches (merkle) and eventually dirty node writebacks.
        assert kinds.get("counter_wb", 0) > 0
        assert kinds.get("merkle", 0) > 0

    def test_mac_updates_on_writeback(self):
        sim = TimingSimulator(MachineConfig.preset("aise+bmt"))
        sim.run(write_stream(40_000), warmup=0.0)
        assert sim.bus.stats.transfers_by_kind.get("mac_wb", 0) > 0

    def test_mt_leaf_updates_become_dirty_nodes(self):
        sim = TimingSimulator(MachineConfig(encryption="aise", integrity="merkle"))
        sim.run(write_stream(40_000), warmup=0.0)
        assert sim.bus.stats.transfers_by_kind.get("merkle_wb", 0) > 0


class TestMetadataAddressing:
    """Through the address functions the per-miss walk itself uses."""

    def test_aise_counter_block_shared_by_page(self):
        walk = miss_walk(TimingSimulator(MachineConfig(encryption="aise", integrity="none")),
                         [].append)
        assert walk.counter_block(0) == walk.counter_block(4095)
        assert walk.counter_block(4096) == walk.counter_block(0) + 1

    def test_global64_counter_block_spans_8_blocks(self):
        walk = miss_walk(TimingSimulator(MachineConfig(encryption="global64", integrity="none")),
                         [].append)
        assert walk.counter_block(0) == walk.counter_block(511)
        assert walk.counter_block(512) == walk.counter_block(0) + 1

    def test_mac_block_addressing(self):
        walk = miss_walk(TimingSimulator(MachineConfig.preset("aise+bmt")), [].append)
        # 128-bit MACs: 4 MACs per 64B block.
        assert walk.mac_block(0) == walk.mac_block(3)
        assert walk.mac_block(4) == walk.mac_block(0) + 1

    def test_metadata_lives_outside_data_region(self):
        sim = TimingSimulator(MachineConfig.preset("aise+bmt"))
        walk = miss_walk(sim, [].append)
        assert walk.counter_block(0) * 64 >= sim.layout.counter_base
        assert walk.mac_block(0) * 64 >= sim.layout.mac_base


class TestStatsHygiene:
    def test_metadata_lookups_not_counted_as_demand(self):
        """The reported miss rate is the paper's demand-only local rate."""
        trace = Trace.from_lists([(0, OP_READ, i * 64) for i in range(500)])
        base = TimingSimulator(MachineConfig.preset("base"))
        base.run(trace, warmup=0.0)
        mt = TimingSimulator(MachineConfig(encryption="aise", integrity="merkle"))
        result = mt.run(trace, warmup=0.0)
        assert result.l2_accesses == 500  # not inflated by node lookups
        assert result.l2_misses == 500

    def test_occupancy_fractions_sum_to_one(self):
        profile = WorkloadProfile("w", hot_bytes=512 * 1024, cold_bytes=2 << 20,
                                  hot_fraction=0.5, write_fraction=0.3, mean_gap=10)
        sim = TimingSimulator(MachineConfig(encryption="aise", integrity="merkle"))
        result = sim.run(generate_trace(profile, 20_000, seed=3))
        assert result.l2_data_fraction + result.l2_merkle_fraction == pytest.approx(1.0, abs=0.02)

    def test_zero_length_trace(self):
        result = TimingSimulator(MachineConfig.preset("base")).run(Trace.from_lists([]), warmup=0.0)
        assert result.cycles == 0
        assert result.l2_miss_rate == 0.0

    def test_full_warmup_yields_empty_measurement(self):
        trace = Trace.from_lists([(1, OP_READ, 0)] * 100)
        result = TimingSimulator(MachineConfig.preset("base")).run(trace, warmup=1.0)
        assert result.l2_accesses == 0
        assert result.instructions == 0


class TestCrossConfigInvariants:
    @pytest.fixture(scope="class")
    def trace(self):
        profile = WorkloadProfile("w", hot_bytes=512 * 1024, cold_bytes=2 << 20,
                                  hot_fraction=0.6, write_fraction=0.3, mean_gap=12)
        return generate_trace(profile, 15_000, seed=9)

    def test_base_has_no_metadata_traffic(self, trace):
        sim = TimingSimulator(MachineConfig.preset("base"))
        sim.run(trace)
        kinds = sim.bus.stats.transfers_by_kind
        assert set(kinds) <= {"data", "data_wb"}

    def test_encryption_only_adds_counter_traffic_only(self, trace):
        sim = TimingSimulator(MachineConfig(encryption="aise", integrity="none"))
        sim.run(trace)
        kinds = sim.bus.stats.transfers_by_kind
        assert "merkle" not in kinds and "mac" not in kinds

    def test_demand_misses_identical_for_non_polluting_configs(self, trace):
        """Encryption-only and BMT configs don't perturb the data stream's
        L2 behaviour (counters live in their own cache; MACs uncached)."""
        base = TimingSimulator(MachineConfig.preset("base")).run(trace)
        enc = TimingSimulator(MachineConfig(encryption="aise", integrity="none")).run(trace)
        assert enc.l2_misses == base.l2_misses

    def test_identical_traces_identical_results(self, trace):
        a = TimingSimulator(MachineConfig.preset("aise+bmt")).run(trace)
        b = TimingSimulator(MachineConfig.preset("aise+bmt")).run(trace)
        assert a.cycles == b.cycles
        assert a.bus_utilization == b.bus_utilization


class TestVirtualAddressStorageCost:
    """Table 1's 'VA storage in L2' row: the virtual-address scheme loses
    L2 capacity to per-line virtual-address fields."""

    def test_l2_capacity_reduced(self):
        from repro.core.config import MachineConfig

        virt = TimingSimulator(MachineConfig(encryption="virt_addr", integrity="none"))
        phys = TimingSimulator(MachineConfig(encryption="phys_addr", integrity="none"))
        assert virt.l2.size_bytes < phys.l2.size_bytes
        assert virt.l2.size_bytes >= phys.l2.size_bytes * 0.93  # ~6% tax

    def test_capacity_tax_shows_up_on_l2_sized_working_sets(self):
        from repro.core.config import MachineConfig
        from repro.workloads.synthetic import WorkloadProfile, generate_trace

        profile = WorkloadProfile("edge", hot_bytes=1008 * 1024, cold_bytes=64 * 1024,
                                  hot_fraction=0.97, write_fraction=0.2, mean_gap=15)
        trace = generate_trace(profile, 30_000, seed=21)
        virt = TimingSimulator(MachineConfig(encryption="virt_addr", integrity="none")).run(trace)
        phys = TimingSimulator(MachineConfig(encryption="phys_addr", integrity="none")).run(trace)
        assert virt.l2_misses >= phys.l2_misses


class TestLifetime:
    @pytest.mark.parametrize("gate", [True, False])
    def test_dropped_simulator_is_freed_without_the_cycle_collector(self, gate):
        """Simulator and registry form no reference cycle: the registry's
        gauges hold the simulator weakly, so ``del`` frees it (and its
        cache sets) at once."""
        trace = generate_trace(WorkloadProfile("life", hot_bytes=64 * 1024,
                                               cold_bytes=1 << 20,
                                               write_fraction=0.3), 2000, seed=3)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim = TimingSimulator(MachineConfig.preset("aise+bmt"))
            with fastpath.forced(gate):
                sim.run(trace)
            assert sim.registry.snapshot()["sim.demand_accesses"] > 0
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
