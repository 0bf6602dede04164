"""The dedicated Merkle-node cache ablation (vs the paper's shared L2)."""

import pytest

from repro.core.config import CacheConfig, MachineConfig
from repro.sim.simulator import TimingSimulator
from repro.workloads.spec2k import spec_trace


def mt_config(node_kb: int | None = None) -> MachineConfig:
    node = CacheConfig(node_kb * 1024, 8, 10) if node_kb else None
    return MachineConfig(encryption="aise", integrity="merkle", node_cache=node)


@pytest.fixture(scope="module")
def trace():
    return spec_trace("art", 25_000)


class TestDedicatedNodeCache:
    def test_removes_l2_pollution(self, trace):
        shared = TimingSimulator(mt_config()).run(trace)
        dedicated = TimingSimulator(mt_config(node_kb=256)).run(trace)
        assert shared.l2_merkle_fraction > 0.2
        assert dedicated.l2_merkle_fraction == 0.0
        assert dedicated.l2_data_fraction == pytest.approx(1.0)

    def test_restores_data_miss_rate(self, trace):
        base = TimingSimulator(MachineConfig.preset("base")).run(trace)
        dedicated = TimingSimulator(mt_config(node_kb=256)).run(trace)
        assert dedicated.l2_miss_rate == pytest.approx(base.l2_miss_rate, abs=0.01)

    def test_big_dedicated_cache_beats_shared_l2(self, trace):
        """With 256KB of private node storage, MT sheds its pollution
        penalty — quantifying what the shared-L2 design costs."""
        shared = TimingSimulator(mt_config()).run(trace)
        dedicated = TimingSimulator(mt_config(node_kb=256)).run(trace)
        assert dedicated.cycles < shared.cycles

    def test_tiny_dedicated_cache_still_functions(self, trace):
        """An 8KB node cache thrashes but stays correct — more node
        fetches, never a wrong result (it's a timing structure)."""
        tiny = TimingSimulator(mt_config(node_kb=8))
        big = TimingSimulator(mt_config(node_kb=256))
        tiny_result = tiny.run(trace)
        big_result = big.run(trace)
        assert (tiny.bus.stats.transfers_by_kind.get("merkle", 0)
                > big.bus.stats.transfers_by_kind.get("merkle", 0))
        assert tiny_result.cycles >= big_result.cycles

    def test_bmt_plus_node_cache_changes_little(self, trace):
        """BMT's bonsai tree is already tiny; a dedicated cache for it is
        nearly a no-op — the paper's point that shrinking the tree beats
        provisioning hardware for a big one."""
        from dataclasses import replace

        default = TimingSimulator(MachineConfig.preset("aise+bmt")).run(trace)
        with_cache = TimingSimulator(
            replace(MachineConfig.preset("aise+bmt"), node_cache=CacheConfig(32 * 1024, 8, 10))
        ).run(trace)
        assert with_cache.cycles == pytest.approx(default.cycles, rel=0.02)
