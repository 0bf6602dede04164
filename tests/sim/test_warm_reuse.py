"""Warm-state reuse across runs: bus-time rebase and statistics hygiene.

Regression tests for two carryover bugs in the timing core:

* a second ``run()`` on the same simulator restarted the clock at 0.0
  while the bus kept the previous trace's final ``free_at`` timestamp,
  so every early transfer queued behind phantom traffic;
* the warmup-boundary statistics reset skipped the dedicated node
  cache, so node-cache configurations reported warmup-polluted
  hit/miss/occupancy numbers.
"""

import pytest

from repro.core.config import CacheConfig, MachineConfig
from repro.mem.bus import MemoryBus
from repro.sim.simulator import TimingSimulator
from repro.workloads.spec2k import spec_trace
from repro.workloads.synthetic import streaming_trace


def node_cache_config() -> MachineConfig:
    return MachineConfig(encryption="aise", integrity="merkle",
                         node_cache=CacheConfig(64 * 1024, 8, 10))


class TestBusRebase:
    def test_second_run_not_queued_behind_phantom_traffic(self):
        """Re-running the same trace on warm caches must not be slower.

        Before the fix, the first transfers of run 2 queued behind the
        bus's final run-1 timestamp, inflating cycles by roughly the
        whole previous run."""
        trace = streaming_trace(4000, 4 << 20, seed=5)
        sim = TimingSimulator(MachineConfig.preset("base"))
        first = sim.run(trace, warmup=0.0)
        assert sim.bus.free_at > 0.0  # run 1 left the bus clock advanced
        second = sim.run(trace, warmup=0.0)
        # Warm caches: the rerun can only be as fast or faster.
        assert second.cycles <= first.cycles
        assert second.l2_misses <= first.l2_misses

    def test_back_to_back_runs_match_concatenated_trace(self):
        """run(A); run(B) must time B exactly like the measured half of
        one continuous A+B stream (same warm caches, no phantom bus
        backlog) — the semantics 'rebase time, keep state' guarantees."""
        trace_a = streaming_trace(3000, 2 << 20, seed=7)
        trace_b = streaming_trace(3000, 2 << 20, seed=8)

        continuous = TimingSimulator(MachineConfig.preset("base"))
        reference = continuous.run(trace_a.concat(trace_b), warmup=0.5)

        sim = TimingSimulator(MachineConfig.preset("base"))
        sim.run(trace_a, warmup=0.0)
        replay = sim.run(trace_b, warmup=0.0)

        # Identical cache state at the boundary; the only divergence is
        # the (bounded, tiny) bus tail in flight at the seam.
        assert replay.l2_misses == reference.l2_misses
        assert replay.cycles == pytest.approx(reference.cycles, rel=0.02)

    def test_rebase_keeps_stats(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.request(0.0)
        bus.rebase(0.0)
        assert bus.free_at == 0.0
        assert bus.stats.transfers == 1  # rebase moves time, not history


class TestNodeCacheStatsReset:
    def test_warmup_resets_node_cache_stats(self):
        """With warmup covering the whole trace, every statistic —
        including the dedicated node cache's — must read zero."""
        trace = spec_trace("art", 8_000)
        sim = TimingSimulator(node_cache_config())
        sim.run(trace, warmup=1.0)
        assert sim.node_cache.stats.accesses == 0
        assert sim.node_cache.stats.misses == 0
        assert sim.node_cache.stats.writebacks == 0

    def test_node_cache_stats_exclude_warmup(self):
        """Post-warmup node-cache traffic must be a strict subset of the
        whole-trace traffic (the warm fraction's lookups are excluded)."""
        trace = spec_trace("art", 8_000)
        cold = TimingSimulator(node_cache_config())
        cold.run(trace, warmup=0.0)
        warmed = TimingSimulator(node_cache_config())
        warmed.run(trace, warmup=0.5)
        assert 0 < warmed.node_cache.stats.accesses < cold.node_cache.stats.accesses

    def test_second_run_stats_are_fresh(self):
        """Statistics never leak from one run() into the next."""
        trace = spec_trace("art", 5_000)
        sim = TimingSimulator(node_cache_config())
        sim.run(trace, warmup=0.0)
        first = sim.node_cache.stats.accesses
        sim.run(trace, warmup=0.0)
        assert sim.node_cache.stats.accesses <= first


class TestBusFloatTime:
    def test_fractional_request_times(self):
        bus = MemoryBus(cycles_per_block=16)
        start, end = bus.request(10.5)
        assert (start, end) == (10.5, 26.5)
        start, end = bus.request(12.25)  # queues behind the first
        assert start == 26.5
        assert isinstance(bus.stats.queue_cycles, float)
        assert bus.stats.queue_cycles == pytest.approx(26.5 - 12.25)

    def test_utilization_accepts_float_totals(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.request(0.0)
        assert bus.stats.utilization(64.0) == pytest.approx(0.25)
        assert bus.stats.utilization(0.0) == 0.0

    def test_durations_stay_integral(self):
        """Sub-block transfers quantize deterministically."""
        bus = MemoryBus(cycles_per_block=28)
        start, end = bus.request(0.0, fraction=16 / 64)
        assert end - start == 7
