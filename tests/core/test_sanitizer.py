"""Runtime sanitizer: arming semantics and each wired seam.

Every test manages arming explicitly (an autouse fixture disarms first
and restores afterwards) so the module behaves identically under plain
pytest and under ``REPRO_SANITIZE=1`` CI runs.
"""

from __future__ import annotations

import pytest

from repro.core import sanitizer
from repro.core.config import MachineConfig
from repro.core.counters import (
    GlobalPageCounter,
    MonotonicGlobalCounter,
    PageCounterBlock,
)
from repro.core.errors import IntegrityError
from repro.core.machine import SecureMemorySystem
from repro.core.sanitizer import SanitizerConfig, SanitizerError, sanitized
from repro.mem.cache import DATA, SetAssociativeCache
from repro.osmodel.swap import SwapDevice


@pytest.fixture(autouse=True)
def _pristine_sanitizer():
    previous = sanitizer.active()
    sanitizer.disarm()
    yield
    # Restore the pre-test state either way: re-arm what was armed, and
    # disarm anything a test armed and left behind (otherwise an armed
    # config leaks into the rest of the suite).
    if previous is not None:
        sanitizer.arm(previous)
    else:
        sanitizer.disarm()


class TestArming:
    def test_disarmed_by_default(self):
        assert sanitizer.active() is None
        assert not sanitizer.enabled("counter_monotonicity")
        assert sanitizer.spot_interval() == 0

    def test_arm_and_disarm(self):
        config = sanitizer.arm()
        assert config == SanitizerConfig()
        assert sanitizer.enabled("swap_ownership")
        sanitizer.disarm()
        assert sanitizer.active() is None

    def test_sanitized_context_restores_prior_state(self):
        with sanitized(spot_check_interval=1) as config:
            assert config.spot_check_interval == 1
            assert sanitizer.enabled("cache_inclusion")
        assert sanitizer.active() is None

    def test_sanitized_overrides_nest(self):
        sanitizer.arm(SanitizerConfig(swap_ownership=False))
        with sanitized(counter_monotonicity=False):
            assert not sanitizer.enabled("counter_monotonicity")
            assert not sanitizer.enabled("swap_ownership")  # inherited
        assert sanitizer.enabled("counter_monotonicity")

    def test_check_raises_with_message(self):
        with pytest.raises(SanitizerError, match="boom"):
            sanitizer.check(False, "boom")
        sanitizer.check(True, "never raised")


class TestCounterSeam:
    def test_out_of_range_minor_is_caught_when_armed(self):
        block = PageCounterBlock.fresh(lpid=1)
        block.minors[0] = 999  # simulate a write that bypassed the API
        with sanitized(), pytest.raises(SanitizerError):
            block.increment(0)

    def test_disarmed_increment_does_not_check(self):
        block = PageCounterBlock.fresh(lpid=1)
        block.minors[0] = 999
        assert block.increment(0) is True  # wraps silently, no sanitizer

    def test_normal_increments_pass_armed(self):
        block = PageCounterBlock.fresh(lpid=1)
        with sanitized():
            for _ in range(200):  # crosses one wrap
                block.increment(0)

    def test_global_counter_rollback_is_caught(self):
        ctr = MonotonicGlobalCounter(bits=8)
        ctr._value = -5  # simulate corrupted counter state
        with sanitized(), pytest.raises(SanitizerError):
            ctr.next_value()

    def test_gpc_zero_state_is_caught(self):
        gpc = GlobalPageCounter()
        with sanitized(), pytest.raises(SanitizerError):
            gpc.restore_state(0)
        gpc.restore_state(0)  # disarmed: the raw poke is allowed


class TestSwapSeam:
    def test_dma_to_unallocated_slot_is_caught(self):
        swap = SwapDevice(slots=2)
        image = b"\x01" * swap.slot_bytes
        with sanitized():
            with pytest.raises(SanitizerError):
                swap.dma_write(0, image)
            with pytest.raises(SanitizerError):
                swap.dma_read(0)

    def test_allocated_slot_round_trips_armed(self):
        swap = SwapDevice(slots=2)
        image = b"\x02" * swap.slot_bytes
        with sanitized():
            slot = swap.allocate_slot()
            swap.dma_write(slot, image)
            assert swap.dma_read(slot) == image

    def test_size_validation_still_wins_over_ownership(self):
        swap = SwapDevice(slots=1)
        with sanitized(), pytest.raises(ValueError):
            swap.dma_write(0, b"short")

    def test_adversary_interface_bypasses_ownership(self):
        swap = SwapDevice(slots=1)
        image = b"\x03" * swap.slot_bytes
        slot = swap.allocate_slot()
        swap.dma_write(slot, image)
        swap.release_slot(slot)
        with sanitized():
            captured = swap.snapshot_slot(slot)  # physical read: no check
            swap.corrupt_slot(slot)
            swap.replay_slot(slot, captured)  # physical write: no check
        assert swap.snapshot_slot(slot) == image


class TestCacheSeam:
    def make_cache(self):
        # 8 sets x 2 ways of 64B lines.
        return SetAssociativeCache(1024, assoc=2, block_size=64, name="t")

    def test_clean_fills_pass_armed(self):
        cache = self.make_cache()
        with sanitized(spot_check_interval=1):
            for block in range(64):
                cache.insert(block * 64, DATA)

    def test_overfull_set_is_caught(self):
        cache = self.make_cache()
        # Stuff set 0 beyond its associativity behind the API's back.
        for block in (0, 8, 16):
            cache._sets[0][block] = (False, DATA)
        with sanitized(), pytest.raises(SanitizerError):
            cache.insert(24 * 64, DATA)

    def test_tally_drift_is_caught_by_recount(self):
        cache = self.make_cache()
        cache.insert(0, DATA)
        cache._class_lines[DATA] += 5  # corrupt the occupancy bookkeeping
        with sanitized(spot_check_interval=1), pytest.raises(SanitizerError):
            cache.insert(64, DATA)


class TestBmtSeam:
    def make_machine(self):
        machine = SecureMemorySystem(
            MachineConfig(physical_bytes=16 * 4096, encryption="aise", integrity="bonsai")
        )
        machine.boot()
        return machine

    def test_armed_writes_pass_on_healthy_machine(self):
        machine = self.make_machine()
        with sanitized(spot_check_interval=1):
            for i in range(4):
                machine.write_block(i * 64, bytes([i]) * 64)
                assert machine.read_block(i * 64) == bytes([i]) * 64

    def test_update_ordering_bug_is_caught(self):
        machine = self.make_machine()
        tree = machine.integrity.tree
        # Simulate a Freij-style update-ordering bug: tree nodes are
        # rewritten but the root register update is dropped.
        tree.root.store = lambda mac: None
        with sanitized(spot_check_interval=1), pytest.raises(IntegrityError) as err:
            machine.write_block(0, b"\xaa" * 64)
        assert err.value.kind == "root"

    def test_bug_goes_unnoticed_when_disarmed(self):
        machine = self.make_machine()
        machine.integrity.tree.root.store = lambda mac: None
        machine.write_block(0, b"\xaa" * 64)  # no spot check, no error

    def test_spot_check_interval_spaces_checks(self):
        machine = self.make_machine()
        calls = []
        original = machine.integrity.tree.verify_root
        machine.integrity.tree.verify_root = lambda: calls.append(1) or original()
        with sanitized(spot_check_interval=4):
            for i in range(8):
                machine.write_block(i * 64, b"\x55" * 64)
        # 8 data writes -> 8 counter-block updates -> a check on the 4th
        # and the 8th.
        assert len(calls) == 2

    def test_lowered_interval_applies_immediately(self):
        machine = self.make_machine()
        with sanitized():  # default interval: 64 updates between checks
            machine.write_block(0, b"\x66" * 64)
        machine.integrity.tree.root.store = lambda mac: None
        with sanitized(spot_check_interval=1), pytest.raises(IntegrityError):
            machine.write_block(64, b"\x77" * 64)
