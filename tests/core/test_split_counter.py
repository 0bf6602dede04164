"""The split-counter baseline: AISE's layout, an address's obligations."""

import pytest

from repro.core import IntegrityError, MachineConfig, SecureMemorySystem
from repro.core.counters import MINOR_MAX
from repro.core.seeds import SeedInput, SplitCounterSeedScheme, make_seed_scheme
from repro.core.storage import storage_breakdown
from repro.mem.layout import PAGE_SIZE

from tests.conftest import make_machine


class TestSeeds:
    def test_factory(self):
        assert isinstance(make_seed_scheme("split_ctr"), SplitCounterSeedScheme)

    def test_address_is_in_the_seed(self):
        scheme = SplitCounterSeedScheme()
        a = scheme.seeds_for_block(SeedInput(paddr=0, lpid=1, counter=0))
        b = scheme.seeds_for_block(SeedInput(paddr=PAGE_SIZE, lpid=1, counter=0))
        assert set(a).isdisjoint(b)  # unlike AISE, frames matter

    def test_major_counter_separates_epochs(self):
        scheme = SplitCounterSeedScheme()
        a = scheme.seeds_for_block(SeedInput(paddr=0, lpid=1, counter=0))
        b = scheme.seeds_for_block(SeedInput(paddr=0, lpid=2, counter=0))
        assert set(a).isdisjoint(b)

    def test_properties_match_table1_logic(self):
        props = SplitCounterSeedScheme().properties
        assert props.reencrypt_on_swap  # the address component's price
        assert props.supports_shared_memory  # physical address: IPC fine


class TestMachine:
    def test_roundtrip(self):
        machine = make_machine(encryption="split_ctr", integrity="bonsai",
                               data_bytes=16 * PAGE_SIZE)
        machine.write_block(0, b"\x21" * 64)
        assert machine.read_block(0) == b"\x21" * 64

    def test_tamper_detected(self):
        machine = make_machine(encryption="split_ctr", integrity="bonsai",
                               data_bytes=16 * PAGE_SIZE)
        machine.write_block(0, b"\x22" * 64)
        machine.memory.corrupt(0)
        with pytest.raises(IntegrityError):
            machine.read_block(0)

    def test_same_counter_storage_as_aise(self):
        split = make_machine(encryption="split_ctr", integrity="none",
                             data_bytes=16 * PAGE_SIZE)
        aise = make_machine(encryption="aise", integrity="none",
                            data_bytes=16 * PAGE_SIZE)
        assert split.layout.counter_bytes == aise.layout.counter_bytes

    def test_minor_overflow_bumps_major_and_reencrypts(self):
        machine = make_machine(encryption="split_ctr", integrity="none",
                               data_bytes=16 * PAGE_SIZE)
        machine.write_block(64, b"\x33" * 64)
        major_before = machine.encryption._load(0).lpid
        for _ in range(MINOR_MAX + 2):
            machine.write_block(0, b"\x34" * 64)
        assert machine.encryption._load(0).lpid > major_before
        assert machine.encryption.page_reencryptions >= 1
        assert machine.read_block(64) == b"\x33" * 64

    def test_storage_model_matches_aise(self):
        split = storage_breakdown("split_ctr", "bonsai", 128)
        aise = storage_breakdown("aise", "bonsai", 128)
        assert split.overhead_fraction == pytest.approx(aise.overhead_fraction)


class TestKernelSwap:
    def test_split_counter_pays_reencryption_on_swap(self, kernel_factory):
        """Same storage as AISE, but the address in the seed brings back
        the swap re-encryption cost (why AISE replaces the major counter
        with the LPID, section 4.3)."""
        kernel = kernel_factory(encryption="split_ctr", integrity="bonsai")
        proc = kernel.create_process()
        kernel.mmap(proc.pid, 0x10000, 1)
        kernel.write(proc.pid, 0x10000, b"pay per swap")
        hog = kernel.create_process("hog")
        kernel.mmap(hog.pid, 0x900000, 20)
        for i in range(20):
            kernel.write(hog.pid, 0x900000 + i * PAGE_SIZE, b"\xee")
        assert not proc.page_table.lookup(0x10000).present
        assert kernel.read(proc.pid, 0x10000, 12) == b"pay per swap"
        assert kernel.stats.swap_reencrypted_blocks > 0

    def test_timing_model_matches_aise_reach(self):
        """In the timing simulator the split scheme caches exactly like
        AISE (64 blocks per counter line) — its penalty is systemic, not
        performance."""
        from repro.core.config import MachineConfig
        from repro.sim.simulator import TimingSimulator
        from repro.workloads.spec2k import spec_trace

        trace = spec_trace("gcc", 15_000)
        aise = TimingSimulator(MachineConfig(encryption="aise", integrity="none")).run(trace)
        split = TimingSimulator(MachineConfig(encryption="split_ctr", integrity="none")).run(trace)
        assert split.counter_misses == aise.counter_misses
        assert split.cycles == pytest.approx(aise.cycles)
