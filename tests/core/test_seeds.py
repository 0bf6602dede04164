"""Seed schemes: uniqueness properties and the vulnerabilities of baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SeedReuseError
from repro.core.seeds import (
    AiseSeedScheme,
    GlobalCounterSeedScheme,
    PhysicalAddressSeedScheme,
    SeedAudit,
    SeedInput,
    VirtualAddressSeedScheme,
    make_seed_scheme,
)


class TestAiseSeeds:
    def test_four_chunk_seeds_differ(self):
        scheme = AiseSeedScheme()
        seeds = scheme.seeds_for_block(SeedInput(paddr=0, lpid=1, counter=0))
        assert len(set(seeds)) == 4

    def test_seed_fits_128_bits(self):
        scheme = AiseSeedScheme()
        ctx = SeedInput(paddr=4032, lpid=(1 << 64) - 1, counter=127)
        for seed in scheme.seeds_for_block(ctx):
            assert 0 <= seed < (1 << 128)

    def test_different_lpids_different_seeds(self):
        scheme = AiseSeedScheme()
        a = scheme.seeds_for_block(SeedInput(paddr=0, lpid=1, counter=0))
        b = scheme.seeds_for_block(SeedInput(paddr=0, lpid=2, counter=0))
        assert set(a).isdisjoint(b)

    def test_different_blocks_in_page_differ(self):
        scheme = AiseSeedScheme()
        a = scheme.seeds_for_block(SeedInput(paddr=0, lpid=1, counter=0))
        b = scheme.seeds_for_block(SeedInput(paddr=64, lpid=1, counter=0))
        assert set(a).isdisjoint(b)

    def test_counter_bump_changes_seed(self):
        scheme = AiseSeedScheme()
        a = scheme.seeds_for_block(SeedInput(paddr=0, lpid=1, counter=0))
        b = scheme.seeds_for_block(SeedInput(paddr=0, lpid=1, counter=1))
        assert set(a).isdisjoint(b)

    def test_physical_address_does_not_matter_beyond_page_offset(self):
        """The address-independence that makes swap and IPC free: two
        frames hosting the same page (same LPID) produce the same seeds
        for the same page offset."""
        scheme = AiseSeedScheme()
        frame3 = scheme.seeds_for_block(SeedInput(paddr=3 * 4096 + 128, lpid=9, counter=5))
        frame8 = scheme.seeds_for_block(SeedInput(paddr=8 * 4096 + 128, lpid=9, counter=5))
        assert frame3 == frame8

    @settings(max_examples=40, deadline=None)
    @given(lpid1=st.integers(min_value=1, max_value=2**64 - 1),
           lpid2=st.integers(min_value=1, max_value=2**64 - 1),
           off1=st.integers(min_value=0, max_value=63),
           off2=st.integers(min_value=0, max_value=63),
           c1=st.integers(min_value=0, max_value=127),
           c2=st.integers(min_value=0, max_value=127))
    def test_uniqueness_property(self, lpid1, lpid2, off1, off2, c1, c2):
        """Distinct (LPID, block, counter) triples never collide."""
        scheme = AiseSeedScheme()
        s1 = scheme.seeds_for_block(SeedInput(paddr=off1 * 64, lpid=lpid1, counter=c1))
        s2 = scheme.seeds_for_block(SeedInput(paddr=off2 * 64, lpid=lpid2, counter=c2))
        if (lpid1, off1, c1) != (lpid2, off2, c2):
            assert set(s1).isdisjoint(s2)
        else:
            assert s1 == s2


class TestBaselineSeeds:
    def test_global_counter_ignores_address(self):
        scheme = GlobalCounterSeedScheme(64)
        a = scheme.seeds_for_block(SeedInput(paddr=0, counter=7))
        b = scheme.seeds_for_block(SeedInput(paddr=1 << 20, counter=7))
        assert a == b  # uniqueness comes only from the counter value

    def test_physical_address_binds_frame(self):
        scheme = PhysicalAddressSeedScheme()
        a = scheme.seeds_for_block(SeedInput(paddr=0, counter=1))
        b = scheme.seeds_for_block(SeedInput(paddr=4096, counter=1))
        assert set(a).isdisjoint(b)

    def test_virtual_scheme_with_pid_separates_processes(self):
        scheme = VirtualAddressSeedScheme(include_pid=True)
        p1 = scheme.seeds_for_block(SeedInput(vaddr=0x1000, pid=1, counter=0))
        p2 = scheme.seeds_for_block(SeedInput(vaddr=0x1000, pid=2, counter=0))
        assert set(p1).isdisjoint(p2)

    def test_virtual_scheme_without_pid_reuses_pads(self):
        """The cross-process pad reuse of section 4.2."""
        scheme = VirtualAddressSeedScheme(include_pid=False)
        p1 = scheme.seeds_for_block(SeedInput(vaddr=0x1000, pid=1, counter=0))
        p2 = scheme.seeds_for_block(SeedInput(vaddr=0x1000, pid=2, counter=0))
        assert p1 == p2


class TestSeedAudit:
    def test_detects_virtual_scheme_cross_process_reuse(self):
        audit = SeedAudit(VirtualAddressSeedScheme(include_pid=False))
        audit.record_encryption(SeedInput(vaddr=0x1000, pid=1, counter=0))
        with pytest.raises(SeedReuseError):
            audit.record_encryption(SeedInput(vaddr=0x1000, pid=2, counter=0))

    def test_detects_pid_reuse_even_with_pid_in_seed(self):
        """PID recycling re-creates seeds — why PIDs become non-reusable."""
        audit = SeedAudit(VirtualAddressSeedScheme(include_pid=True))
        audit.record_encryption(SeedInput(vaddr=0x1000, pid=5, counter=0))
        with pytest.raises(SeedReuseError):  # pid 5 recycled to a new process
            audit.record_encryption(SeedInput(vaddr=0x1000, pid=5, counter=0))

    def test_aise_clean_across_processes_and_time(self):
        audit = SeedAudit(AiseSeedScheme())
        for lpid in range(1, 20):
            for counter in range(5):
                audit.record_encryption(SeedInput(paddr=0, lpid=lpid, counter=counter))
        assert audit.reuses == 0
        assert audit.unique_seeds == 19 * 5 * 4

    def test_non_strict_mode_counts(self):
        audit = SeedAudit(GlobalCounterSeedScheme(64), strict=False)
        audit.record_encryption(SeedInput(counter=1))
        audit.record_encryption(SeedInput(counter=1))
        assert audit.reuses == 4  # all four chunk seeds repeated


class TestFactoryAndProperties:
    @pytest.mark.parametrize("name", ["aise", "global32", "global64", "phys_addr", "virt_addr"])
    def test_factory(self, name):
        scheme = make_seed_scheme(name)
        assert scheme.properties.name

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_seed_scheme("rot13")

    def test_table1_key_facts(self):
        """The qualitative claims of Table 1, as machine-checkable fields."""
        assert AiseSeedScheme().properties.supports_shared_memory
        assert not AiseSeedScheme().properties.reencrypt_on_swap
        assert PhysicalAddressSeedScheme().properties.reencrypt_on_swap
        assert not VirtualAddressSeedScheme().properties.supports_shared_memory
        assert GlobalCounterSeedScheme(64).properties.supports_shared_memory


class TestSuperpages:
    """Section 4.3: LPIDs at the smallest page granularity keep seeds
    unique even when the OS maps larger pages (superpages)."""

    def test_superpage_spans_many_lpids(self):
        """A 64KB superpage is sixteen 4KB LPID units; with distinct
        LPIDs per unit, every block of the superpage seeds uniquely."""
        scheme = AiseSeedScheme()
        seen = set()
        base_lpid = 1000
        for unit in range(16):  # sixteen 4KB units of one superpage
            for block in range(64):
                seeds = scheme.seeds_for_block(
                    SeedInput(paddr=unit * 4096 + block * 64,
                              lpid=base_lpid + unit, counter=0)
                )
                for seed in seeds:
                    assert seed not in seen
                    seen.add(seed)
        assert len(seen) == 16 * 64 * 4

    def test_lpid_bits_cover_smallest_page(self):
        """The LPID portion is sized for the smallest supported page, so
        a larger page merely leaves some offset bits redundantly covered
        — never ambiguous."""
        scheme = AiseSeedScheme()
        # Same LPID, offsets beyond 4KB wrap into the next unit's LPID in
        # practice; within one unit all page-offset bits are in the seed.
        a = scheme.seeds_for_block(SeedInput(paddr=0, lpid=5, counter=0))
        b = scheme.seeds_for_block(SeedInput(paddr=4096, lpid=5, counter=0))
        assert a == b  # page offset repeats -> the OS must advance LPIDs
        c = scheme.seeds_for_block(SeedInput(paddr=4096, lpid=6, counter=0))
        assert set(a).isdisjoint(c)
