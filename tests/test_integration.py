"""Full-stack integration scenarios spanning kernel + machine + attacks."""

import pytest

from repro.attacks import MemoryTamperer
from repro.core import (
    AccessContext,
    IntegrityError,
    MachineConfig,
    SecureMemorySystem,
)
from repro.core.counters import MINOR_MAX
from repro.osmodel import Kernel
from repro.mem.layout import PAGE_SIZE

from tests.conftest import make_machine


class TestEndToEndLifecycle:
    """A workload's whole life: boot, run, swap, reboot, attack."""

    def test_long_running_multiprocess_workload(self, kernel_factory):
        kernel = kernel_factory(frames=16, swap_slots=64)
        shells = [kernel.create_process(f"sh{i}") for i in range(4)]
        for i, proc in enumerate(shells):
            kernel.mmap(proc.pid, 0x10000, 4)
            for page in range(4):
                kernel.write(proc.pid, 0x10000 + page * PAGE_SIZE,
                             bytes([i * 16 + page]) * 256)
        # Everyone still sees their own data despite 16 frames for 16+ pages
        # plus kernel churn.
        for i, proc in enumerate(shells):
            for page in range(4):
                expected = bytes([i * 16 + page]) * 256
                assert kernel.read(proc.pid, 0x10000 + page * PAGE_SIZE, 256) == expected
        # Exit half of them; the rest still work; memory is reclaimed.
        for proc in shells[:2]:
            kernel.exit_process(proc.pid)
        for i, proc in enumerate(shells[2:], start=2):
            assert kernel.read(proc.pid, 0x10000, 256) == bytes([i * 16]) * 256

    def test_reboot_then_continue(self):
        """Volatile state dies; the GPC and root survive; data remains
        decryptable and verifiable (section 4.3's non-volatile GPC)."""
        machine = make_machine(data_bytes=16 * PAGE_SIZE)
        machine.write_block(0, b"\x42" * 64)
        machine.write_block(PAGE_SIZE, b"\x43" * 64)
        gpc_before = machine.gpc.value
        machine.reboot()
        assert machine.read_block(0) == b"\x42" * 64
        assert machine.read_block(PAGE_SIZE) == b"\x43" * 64
        # New pages allocated after reboot get fresh LPIDs.
        machine.write_block(2 * PAGE_SIZE, b"\x44" * 64)
        assert machine.gpc.value > gpc_before

    def test_attack_during_multiprocess_run(self, kernel_factory):
        kernel = kernel_factory(frames=16, swap_slots=64)
        proc = kernel.create_process("app")
        kernel.mmap(proc.pid, 0x10000, 1)
        kernel.write(proc.pid, 0x10000, b"critical state")
        paddr = proc.page_table.translate(0x10000)
        MemoryTamperer(kernel.machine).spoof(paddr)
        with pytest.raises(IntegrityError):
            kernel.read(proc.pid, 0x10000, 14)

    def test_counter_overflow_under_os_load(self, kernel_factory):
        """Hammer one block until its 7-bit minor counter wraps; the
        kernel-visible page (and its neighbours) must stay intact."""
        kernel = kernel_factory(frames=16, swap_slots=64)
        proc = kernel.create_process("hammer")
        kernel.mmap(proc.pid, 0x10000, 1)
        kernel.write(proc.pid, 0x10000 + 64, b"neighbour")
        for i in range(MINOR_MAX + 5):
            kernel.write(proc.pid, 0x10000, bytes([i % 256]) * 32)
        engine = kernel.machine.encryption
        assert engine.page_reencryptions >= 1
        assert kernel.read(proc.pid, 0x10000 + 64, 9) == b"neighbour"
        assert kernel.read(proc.pid, 0x10000, 32) == bytes([(MINOR_MAX + 4) % 256]) * 32


class TestCrossSchemeConsistency:
    """The same workload must produce identical plaintext results on
    every configuration — protection is semantically transparent."""

    WORKLOAD = [(i * 64, bytes([i % 251] + [(i * 7) % 256] * 63)) for i in range(40)]

    @pytest.mark.parametrize("enc,integ", [
        ("none", "none"),
        ("aise", "none"),
        ("aise", "mac_only"),
        ("aise", "merkle"),
        ("aise", "bonsai"),
        ("global64", "merkle"),
        ("global32", "bonsai"),
        ("phys_addr", "bonsai"),
        ("direct", "mac_only"),
    ])
    def test_workload_equivalence(self, enc, integ):
        machine = make_machine(encryption=enc, integrity=integ, data_bytes=16 * PAGE_SIZE)
        for address, data in self.WORKLOAD:
            machine.write_block(address, data)
        # Overwrite a few, then read everything back.
        for address, data in self.WORKLOAD[::3]:
            machine.write_block(address, data[::-1])
        for i, (address, data) in enumerate(self.WORKLOAD):
            expected = data[::-1] if i % 3 == 0 else data
            assert machine.read_block(address) == expected, (enc, integ, address)


class TestHmacBackedMachine:
    """The paper-faithful (slow) HMAC-SHA1 / real-AES path end to end."""

    def test_full_datapath_with_reference_crypto(self):
        machine = SecureMemorySystem(
            MachineConfig.preset("aise+bmt", physical_bytes=4 * PAGE_SIZE), fast_crypto=False
        )
        machine.boot()
        machine.write_block(0, b"\x5a" * 64)
        assert machine.read_block(0) == b"\x5a" * 64
        machine.memory.corrupt(0)
        with pytest.raises(IntegrityError):
            machine.read_block(0)

    def test_reference_and_fast_crypto_agree_on_semantics(self):
        for fast in (True, False):
            machine = SecureMemorySystem(
                MachineConfig.preset("aise+bmt", physical_bytes=4 * PAGE_SIZE), fast_crypto=fast
            )
            machine.boot()
            machine.write_block(64, b"\x11" * 64)
            assert machine.read_block(64) == b"\x11" * 64


class TestSeedAuditEndToEnd:
    def test_aise_machine_never_reuses_seeds(self):
        from repro.core.seeds import AiseSeedScheme, SeedAudit

        audit = SeedAudit(AiseSeedScheme())
        machine = SecureMemorySystem(
            MachineConfig(physical_bytes=8 * PAGE_SIZE, encryption="aise",
                          integrity="none"),
            seed_audit=audit,
        )
        machine.boot()
        for round_ in range(3):
            for block in range(32):
                machine.write_block(block * 64, bytes([round_]) * 64)
        assert audit.reuses == 0

    def test_virt_machine_reuse_demonstrated(self):
        from repro.core.errors import SeedReuseError
        from repro.core.seeds import SeedAudit, VirtualAddressSeedScheme

        audit = SeedAudit(VirtualAddressSeedScheme(include_pid=False))
        machine = SecureMemorySystem(
            MachineConfig(physical_bytes=8 * PAGE_SIZE, encryption="virt_addr",
                          integrity="none"),
            seed_audit=audit,
        )
        machine.boot()
        machine.write_block(0, bytes(64), AccessContext(vaddr=0x1000, pid=1))
        with pytest.raises(SeedReuseError):
            # Same virtual address, different process, same counter value:
            # the pad-reuse catastrophe of section 4.2.
            machine.write_block(64, bytes(64), AccessContext(vaddr=0x1000, pid=2))
