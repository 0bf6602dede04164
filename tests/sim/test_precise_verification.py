"""Precise vs non-precise (timely) integrity verification — paper section 6.

The paper evaluates the non-precise mode: blocks are verified as soon as
they arrive, but retirement does not wait. These tests pin the expected
relationships of the precise mode the schemes are also "compatible with".
"""

import pytest

from repro.core.config import MachineConfig
from repro.sim.simulator import TimingSimulator
from repro.workloads.spec2k import spec_trace


@pytest.fixture(scope="module")
def trace():
    return spec_trace("art", 20_000)


def run(config, trace):
    return TimingSimulator(config).run(trace)


class TestPreciseMode:
    def test_precise_costs_more(self, trace):
        relaxed = run(MachineConfig.preset("aise+bmt"), trace)
        precise = run(MachineConfig.preset("aise+bmt", precise_verification=True), trace)
        assert precise.cycles > relaxed.cycles * 1.2

    def test_precise_mt_costs_more_than_relaxed_mt(self, trace):
        relaxed = run(MachineConfig(encryption="aise", integrity="merkle"), trace)
        precise = run(
            MachineConfig(encryption="aise", integrity="merkle", precise_verification=True),
            trace,
        )
        assert precise.cycles > relaxed.cycles

    def test_precise_without_integrity_is_free(self, trace):
        relaxed = run(MachineConfig.preset("base"), trace)
        precise = run(MachineConfig.preset("base", precise_verification=True), trace)
        assert precise.cycles == pytest.approx(relaxed.cycles)

    def test_uncached_macs_hurt_under_precise_verification(self, trace):
        """BMT's no-MAC-caching policy is justified by NON-precise
        verification; once verification blocks retirement, every uncached
        MAC fetch is a serialized memory round-trip, and caching wins.
        (An interaction the paper's section 5.2/6 split implies.)"""
        uncached = run(MachineConfig.preset("aise+bmt", precise_verification=True), trace)
        cached = run(
            MachineConfig.preset("aise+bmt", precise_verification=True, cache_data_macs=True), trace
        )
        assert cached.cycles < uncached.cycles

    def test_bmt_still_beats_mt_when_both_cache_macs(self, trace):
        bmt = run(
            MachineConfig.preset("aise+bmt", precise_verification=True, cache_data_macs=True), trace
        )
        mt = run(
            MachineConfig(encryption="aise", integrity="merkle", precise_verification=True),
            trace,
        )
        assert bmt.cycles < mt.cycles
