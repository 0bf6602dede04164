"""Hibernate/resume: NVRAM state vs the attackable sleeping memory image.

Section 4.3: the GPC is non-volatile so seeds stay unique "even across
system reboots, hibernation, or power optimizations that cut power off
to the processor". These tests also pin the integrity side: the root MAC
resumes from sealed storage, never from a recomputation over the
(possibly tampered) image.
"""

import pytest

from repro.core import IntegrityError, MachineConfig, SecureMemorySystem
from repro.core.errors import ConfigurationError
from repro.mem.layout import PAGE_SIZE

CONFIG = MachineConfig.preset("aise+bmt", physical_bytes=16 * PAGE_SIZE)


def hibernated_machine():
    machine = SecureMemorySystem(CONFIG)
    machine.boot()
    machine.write_block(0, b"\x42" * 64)
    machine.write_block(PAGE_SIZE, b"\x43" * 64)
    return machine, *machine.hibernate()


class TestRoundTrip:
    def test_data_survives(self):
        _, nonvolatile, image = hibernated_machine()
        resumed = SecureMemorySystem.resume(nonvolatile, image, CONFIG)
        assert resumed.read_block(0) == b"\x42" * 64
        assert resumed.read_block(PAGE_SIZE) == b"\x43" * 64

    def test_gpc_continues_not_restarts(self):
        machine, nonvolatile, image = hibernated_machine()
        before = machine.gpc.value
        resumed = SecureMemorySystem.resume(nonvolatile, image, CONFIG)
        resumed.write_block(2 * PAGE_SIZE, b"\x44" * 64)  # new page, new LPID
        assert resumed.gpc.value > before

    def test_seeds_stay_unique_across_hibernation(self):
        """The reason the GPC is NVRAM: LPIDs issued after resume must not
        collide with LPIDs issued before hibernation."""
        machine, nonvolatile, image = hibernated_machine()
        lpid_before = machine.encryption._load(0).lpid
        resumed = SecureMemorySystem.resume(nonvolatile, image, CONFIG)
        resumed.write_block(3 * PAGE_SIZE, bytes(64))
        lpid_after = resumed.encryption._load(3).lpid
        assert lpid_after > lpid_before

    def test_writes_after_resume_work(self):
        _, nonvolatile, image = hibernated_machine()
        resumed = SecureMemorySystem.resume(nonvolatile, image, CONFIG)
        resumed.write_block(0, b"\x55" * 64)
        assert resumed.read_block(0) == b"\x55" * 64


class TestSleepingImageAttacks:
    def test_tampered_image_detected_on_resume(self):
        """The attacker owns the disk while the machine sleeps; the sealed
        root exposes any modification at first use."""
        _, nonvolatile, image = hibernated_machine()
        image = dict(image)
        image[0] = bytes(b ^ 0xFF for b in image[0])
        resumed = SecureMemorySystem.resume(nonvolatile, image, CONFIG)
        with pytest.raises(IntegrityError):
            resumed.read_block(0)

    def test_rolled_back_image_detected(self):
        """Replay the WHOLE pre-update memory image: stale counters and
        MACs are internally consistent, but the sealed root is fresh."""
        machine = SecureMemorySystem(CONFIG)
        machine.boot()
        machine.write_block(0, b"OLD!" * 16)
        _, stale_image = machine.hibernate()
        machine.write_block(0, b"NEW!" * 16)
        nonvolatile, _ = machine.hibernate()
        resumed = SecureMemorySystem.resume(nonvolatile, stale_image, CONFIG)
        with pytest.raises(IntegrityError):
            resumed.read_block(0)

    def test_untouched_blocks_still_readable_after_partial_tamper(self):
        _, nonvolatile, image = hibernated_machine()
        image = dict(image)
        image[0] = bytes(b ^ 0xFF for b in image[0])
        resumed = SecureMemorySystem.resume(nonvolatile, image, CONFIG)
        assert resumed.read_block(PAGE_SIZE) == b"\x43" * 64


class TestConfigGuard:
    def test_mismatched_config_rejected(self):
        _, nonvolatile, image = hibernated_machine()
        other = MachineConfig(physical_bytes=16 * PAGE_SIZE,
                              encryption="global64", integrity="merkle")
        with pytest.raises(ConfigurationError):
            SecureMemorySystem.resume(nonvolatile, image, other)
