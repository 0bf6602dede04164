"""Functional/timing counter-geometry parity, per registered scheme.

The functional engines and the timing simulator both derive "which
counter block covers this data address" — now from the same descriptor.
These tests pin the two sides to each other (and to the descriptor's
arithmetic) for every counter-mode scheme, so a future scheme whose two
halves disagree fails here rather than in a silently wrong figure.
"""

from __future__ import annotations

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import IMAGE_HEADER, SecureMemorySystem, plan_layout
from repro.core.storage import breakdown_for_config
from repro.fastpath.walk import miss_walk
from repro.mem.layout import BLOCK_SIZE, BLOCKS_PER_PAGE, PAGE_SIZE
from repro.schemes import (
    encryption_keys,
    encryption_scheme,
    integrity_keys,
    integrity_scheme,
    register_encryption,
    unregister_encryption,
)
from repro.schemes.encryption import AiseScheme
from repro.sim.simulator import TimingSimulator

DATA_BYTES = 1 << 20  # 1MB: 256 pages, small enough for functional engines

COUNTER_SCHEMES = [k for k in encryption_keys() if encryption_scheme(k).uses_counters]


def _config(enc: str) -> MachineConfig:
    # Integrity choice must tolerate every encryption scheme: bonsai
    # requires counters, which all schemes under test have.
    return MachineConfig(encryption=enc, integrity="bonsai", physical_bytes=DATA_BYTES)


@pytest.mark.parametrize("enc", COUNTER_SCHEMES)
class TestCounterGeometryParity:
    def test_layout_counter_region_matches_descriptor(self, enc):
        scheme = encryption_scheme(enc)
        layout, _ = plan_layout(_config(enc))
        assert layout.counter_bytes == scheme.counter_region_bytes(DATA_BYTES)

    def test_storage_model_counts_the_layout_counter_region(self, enc):
        """Table 2's analytic model and the machine reserve the same bytes."""
        config = _config(enc)
        layout, _ = plan_layout(config)
        assert breakdown_for_config(config).counter_bytes == layout.counter_bytes

    def test_simulator_span_matches_descriptor(self, enc):
        scheme = encryption_scheme(enc)
        sim = TimingSimulator(_config(enc))
        assert sim.uses_counter_cache
        assert sim._cb_span == scheme.counter_block_span

    def test_functional_and_timing_agree_on_counter_block_addresses(self, enc):
        machine = SecureMemorySystem(_config(enc))
        walk = miss_walk(TimingSimulator(_config(enc)), [].append)
        sample = [
            0,
            BLOCK_SIZE,
            PAGE_SIZE - BLOCK_SIZE,
            PAGE_SIZE,
            17 * PAGE_SIZE + 5 * BLOCK_SIZE,
            DATA_BYTES - BLOCK_SIZE,
        ]
        for addr in sample:
            assert machine.encryption.counter_block_address(addr) == walk.counter_block(addr) * BLOCK_SIZE, (
                f"{enc}: functional and timing models disagree at {addr:#x}"
            )

    def test_page_counter_run_is_block_aligned_and_covers_the_page(self, enc):
        scheme = encryption_scheme(enc)
        run_bytes = scheme.counter_blocks_per_page * BLOCK_SIZE
        # The run must hold every per-block counter of one page...
        span = scheme.counter_block_span
        pages_per_cb = max(1, span // PAGE_SIZE)
        cbs_per_page = max(1, PAGE_SIZE // span)
        assert scheme.counter_blocks_per_page == cbs_per_page
        assert pages_per_cb * cbs_per_page >= 1
        # ...and the swap image reserves exactly that much.
        machine = SecureMemorySystem(_config(enc))
        assert machine.image_bytes == IMAGE_HEADER + PAGE_SIZE + run_bytes
        assert machine.image_blocks * BLOCK_SIZE >= machine.image_bytes


class _PerProcessCounterScheme(AiseScheme):
    """The docs' worked example: an AISE-family scheme registered by key."""

    key = "per_process"


class TestRegisteredSchemeStorage:
    def test_registered_scheme_gets_a_breakdown_equal_to_its_layout(self):
        register_encryption(_PerProcessCounterScheme())
        try:
            config = _config("per_process")
            layout, _ = plan_layout(config)
            assert layout.counter_bytes == DATA_BYTES // 64  # 16KB per MB
            assert breakdown_for_config(config).counter_bytes == layout.counter_bytes
        finally:
            unregister_encryption("per_process")


class TestTimingFlagsParity:
    @pytest.mark.parametrize("integ", integrity_keys())
    def test_simulator_integrity_flags_match_descriptor(self, integ):
        scheme = integrity_scheme(integ)
        enc = "aise" if scheme.requires_counters else "none"
        sim = TimingSimulator(
            MachineConfig(encryption=enc, integrity=integ, physical_bytes=DATA_BYTES)
        )
        assert sim._walks_tree == scheme.uses_tree
        assert sim._tree_covers_data == scheme.tree_covers_data
        assert sim._uses_data_macs == scheme.uses_data_macs

    def test_counter_free_schemes_bypass_the_counter_cache(self):
        for enc in encryption_keys():
            scheme = encryption_scheme(enc)
            if scheme.uses_counters:
                continue
            sim = TimingSimulator(
                MachineConfig(encryption=enc, integrity="none", physical_bytes=DATA_BYTES)
            )
            assert not sim.uses_counter_cache
