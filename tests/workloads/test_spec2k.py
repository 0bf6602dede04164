"""SPEC2K-like profile suite: coverage and calibration regime."""

import pytest

from repro.core.config import MachineConfig
from repro.sim.simulator import TimingSimulator
from repro.workloads.spec2k import (
    MEMORY_BOUND,
    SPEC2K_BENCHMARKS,
    all_spec_traces,
    profile,
    spec_trace,
)


class TestSuiteShape:
    def test_twenty_one_benchmarks(self):
        """The paper uses the 21 C/C++ SPEC2000 benchmarks (section 6)."""
        assert len(SPEC2K_BENCHMARKS) == 21

    def test_memory_bound_subset(self):
        assert set(MEMORY_BOUND) <= set(SPEC2K_BENCHMARKS)
        assert {"art", "mcf", "swim"} <= set(MEMORY_BOUND)

    def test_all_profiles_resolve(self):
        for name in SPEC2K_BENCHMARKS:
            assert profile(name).name == name

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile("doom3")

    def test_stable_default_seed(self):
        import numpy as np

        a = spec_trace("art", events=500)
        b = spec_trace("art", events=500)
        assert np.array_equal(a.addresses, b.addresses)

    def test_all_spec_traces(self):
        traces = all_spec_traces(events=100)
        assert set(traces) == set(SPEC2K_BENCHMARKS)
        assert all(len(t) == 100 for t in traces.values())


class TestCalibrationRegime:
    """Base-machine miss rates must sit in the paper's regime: the
    memory-bound subset well above 20%, the resident tail well below."""

    @pytest.mark.parametrize("bench", ["art", "mcf", "swim"])
    def test_memory_bound_miss_above_20pct(self, bench):
        result = TimingSimulator(MachineConfig.preset("base")).run(spec_trace(bench, 30_000), warmup=0.25)
        assert result.l2_miss_rate > 0.20, bench

    @pytest.mark.parametrize("bench", ["crafty", "eon", "gzip"])
    def test_resident_miss_below_15pct(self, bench):
        result = TimingSimulator(MachineConfig.preset("base")).run(spec_trace(bench, 60_000), warmup=0.4)
        assert result.l2_miss_rate < 0.15, bench

    def test_art_has_large_l2_scale_hot_set(self):
        """art's pathology in the paper comes from an L2-sized working set
        that Merkle pollution destroys."""
        p = profile("art")
        assert 0.75 * (1 << 20) <= p.hot_bytes <= 1.25 * (1 << 20)

    def test_mcf_has_poor_locality(self):
        assert profile("mcf").chunk_blocks <= 4

    def test_swim_is_write_heavy(self):
        assert profile("swim").write_fraction >= 0.4
