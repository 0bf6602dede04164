"""The functional secure processor: datapath correctness per scheme."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessContext,
    IntegrityError,
    MachineConfig,
    SecureMemorySystem,
)
from repro.core.counters import MINOR_MAX
from repro.core.seeds import SeedAudit, AiseSeedScheme

from tests.conftest import make_machine

ALL_SCHEMES = [
    ("aise", "bonsai"),
    ("aise", "merkle"),
    ("aise", "mac_only"),
    ("aise", "none"),
    ("global64", "merkle"),
    ("global32", "none"),
    ("phys_addr", "bonsai"),
    ("virt_addr", "bonsai"),
    ("direct", "none"),
    ("none", "none"),
]


class TestRoundTrips:
    @pytest.mark.parametrize("enc,integ", ALL_SCHEMES)
    def test_write_read_roundtrip(self, enc, integ):
        machine = make_machine(encryption=enc, integrity=integ, data_bytes=64 * 4096)
        ctx = AccessContext(vaddr=0x4000, pid=3)
        machine.write_block(0x4000, bytes(range(64)), ctx)
        assert machine.read_block(0x4000, ctx) == bytes(range(64))

    @pytest.mark.parametrize("enc", ["aise", "global64", "phys_addr", "direct"])
    def test_memory_holds_ciphertext(self, enc):
        machine = make_machine(encryption=enc, integrity="none", data_bytes=16 * 4096)
        plaintext = b"\x00" * 64
        machine.write_block(0, plaintext)
        assert machine.memory.raw_read(0) != plaintext

    def test_unencrypted_machine_holds_plaintext(self):
        machine = make_machine(encryption="none", integrity="none", data_bytes=16 * 4096)
        machine.write_block(0, b"\x42" * 64)
        assert machine.memory.raw_read(0) == b"\x42" * 64

    def test_counter_mode_hides_equal_plaintexts(self):
        """Unlike direct encryption, equal blocks encrypt differently."""
        machine = make_machine(data_bytes=16 * 4096)
        machine.write_block(0, b"\x37" * 64)
        machine.write_block(64, b"\x37" * 64)
        assert machine.memory.raw_read(0) != machine.memory.raw_read(64)

    def test_direct_encryption_leaks_equality(self):
        """The statistical weakness of direct encryption (section 2)."""
        machine = make_machine(encryption="direct", integrity="none", data_bytes=16 * 4096)
        machine.write_block(0, b"\x37" * 64)
        machine.write_block(64, b"\x37" * 64)
        assert machine.memory.raw_read(0) == machine.memory.raw_read(64)

    def test_rewrite_same_block_changes_ciphertext(self):
        """Temporal uniqueness: the counter bump refreshes the pad."""
        machine = make_machine(data_bytes=16 * 4096)
        machine.write_block(0, b"\x55" * 64)
        first = machine.memory.raw_read(0)
        machine.write_block(0, b"\x55" * 64)
        assert machine.memory.raw_read(0) != first

    def test_requires_boot(self):
        machine = SecureMemorySystem(MachineConfig(physical_bytes=16 * 4096))
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            machine.read_block(0)

    def test_rejects_bad_addresses(self):
        machine = make_machine(data_bytes=16 * 4096)
        with pytest.raises(ValueError):
            machine.read_block(3)
        with pytest.raises(ValueError):
            machine.write_block(16 * 4096, bytes(64))  # metadata region


class TestByteInterface:
    def test_unaligned_read_write(self, bmt_machine):
        bmt_machine.write_bytes(100, b"hello, world")
        assert bmt_machine.read_bytes(100, 12) == b"hello, world"

    def test_spanning_blocks(self, bmt_machine):
        data = bytes(range(200))
        bmt_machine.write_bytes(60, data)
        assert bmt_machine.read_bytes(60, 200) == data

    def test_read_modify_write_preserves_neighbours(self, bmt_machine):
        bmt_machine.write_block(0, b"\xaa" * 64)
        bmt_machine.write_bytes(16, b"XY")
        block = bmt_machine.read_block(0)
        assert block[:16] == b"\xaa" * 16
        assert block[16:18] == b"XY"
        assert block[18:] == b"\xaa" * 46

    @settings(max_examples=15, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=300), data=st.binary(min_size=1, max_size=200))
    def test_roundtrip_property(self, offset, data):
        machine = make_machine(data_bytes=16 * 4096)
        machine.write_bytes(offset, data)
        assert machine.read_bytes(offset, len(data)) == data


class TestAiseCounterManagement:
    def test_lpids_assigned_lazily_and_uniquely(self):
        machine = make_machine(data_bytes=16 * 4096)
        machine.write_block(0, bytes(64))  # page 0
        machine.write_block(4096, bytes(64))  # page 1
        engine = machine.encryption
        lpid0 = engine._load(0).lpid
        lpid1 = engine._load(1).lpid
        assert lpid0 != 0 and lpid1 != 0 and lpid0 != lpid1

    def test_minor_counter_increments_per_write(self):
        machine = make_machine(data_bytes=16 * 4096)
        machine.write_block(128, bytes(64))
        machine.write_block(128, bytes(64))
        assert machine.encryption._load(0).minors[2] == 2

    def test_minor_overflow_reencrypts_only_that_page(self):
        machine = make_machine(data_bytes=16 * 4096)
        # Fill two pages with known data.
        machine.write_block(0, b"\x01" * 64)
        machine.write_block(64, b"\x02" * 64)
        machine.write_block(4096, b"\x03" * 64)
        other_page_cipher = machine.memory.raw_read(4096)
        engine = machine.encryption
        old_lpid = engine._load(0).lpid
        for _ in range(MINOR_MAX + 2):
            machine.write_block(0, b"\x01" * 64)
        assert engine.page_reencryptions >= 1
        assert engine._load(0).lpid != old_lpid
        # Sibling block in the page survived re-encryption.
        assert machine.read_block(64) == b"\x02" * 64
        # The other page was not rewritten at all.
        assert machine.memory.raw_read(4096) == other_page_cipher
        assert machine.read_block(4096) == b"\x03" * 64

    def test_overflow_with_integrity_keeps_tree_consistent(self):
        machine = make_machine(data_bytes=16 * 4096, integrity="merkle")
        machine.write_block(64, b"\x09" * 64)
        for _ in range(MINOR_MAX + 2):
            machine.write_block(0, b"\x08" * 64)
        assert machine.read_block(64) == b"\x09" * 64
        assert machine.read_block(0) == b"\x08" * 64

    def test_seed_audit_stays_clean_through_overflow(self):
        """The LPID refresh must never reuse a (seed) pad."""
        audit = SeedAudit(AiseSeedScheme())
        machine = SecureMemorySystem(
            MachineConfig(physical_bytes=16 * 4096, encryption="aise", integrity="none"),
            seed_audit=audit,
        )
        machine.boot()
        for _ in range(MINOR_MAX + 10):
            machine.write_block(0, bytes(64))
        assert audit.reuses == 0

    def test_reboot_preserves_gpc(self):
        machine = make_machine(data_bytes=16 * 4096)
        machine.write_block(0, b"\x0a" * 64)
        before = machine.gpc.value
        machine.reboot()
        assert machine.gpc.value == before
        assert machine.read_block(0) == b"\x0a" * 64  # data still decryptable


class TestGlobalCounterMachine:
    def test_stamps_stored_per_block(self):
        machine = make_machine(encryption="global64", integrity="none", data_bytes=16 * 4096)
        machine.write_block(0, bytes(64))
        machine.write_block(64, bytes(64))
        assert machine.encryption.read_counter(0) == 1
        assert machine.encryption.read_counter(64) == 2

    def test_wrap_triggers_whole_memory_reencryption(self):
        """Force a tiny global counter to wrap: every live block must be
        re-encrypted under a new key and still read back correctly."""
        machine = make_machine(encryption="global64", integrity="none", data_bytes=16 * 4096)
        machine.encryption.global_counter = type(machine.encryption.global_counter)(bits=6)
        for i in range(8):
            machine.write_block(i * 64, bytes([i]) * 64)
        for _ in range(70):  # wrap the 6-bit counter
            machine.write_block(512, b"\x77" * 64)
        assert machine.encryption.memory_reencryptions >= 1
        for i in range(8):
            if i * 64 == 512:
                continue
            assert machine.read_block(i * 64) == bytes([i]) * 64
        assert machine.read_block(512) == b"\x77" * 64


class TestVirtualAddressScheme:
    def test_needs_matching_context(self):
        """Decrypting with another process's context yields garbage —
        the shared-memory IPC breakage of section 4.2."""
        machine = make_machine(encryption="virt_addr", integrity="none", data_bytes=16 * 4096)
        writer = AccessContext(vaddr=0x8000, pid=1)
        reader_wrong = AccessContext(vaddr=0x8000, pid=2)
        machine.write_block(0, b"shared-data-here" * 4, writer)
        assert machine.read_block(0, writer) == b"shared-data-here" * 4
        assert machine.read_block(0, reader_wrong) != b"shared-data-here" * 4
