"""Memory bus: serialization, queueing, and utilization accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.bus import MemoryBus


class TestScheduling:
    def test_idle_bus_starts_immediately(self):
        bus = MemoryBus(cycles_per_block=16)
        start, end = bus.request(100)
        assert (start, end) == (100, 116)

    def test_busy_bus_queues(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.request(100)
        start, end = bus.request(105)
        assert (start, end) == (116, 132)

    def test_gap_leaves_bus_idle(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.request(0)
        start, _ = bus.request(1000)
        assert start == 1000

    def test_back_to_back_saturation(self):
        bus = MemoryBus(cycles_per_block=10)
        for i in range(10):
            bus.request(0)
        assert bus.free_at == 100


class TestStats:
    def test_busy_cycles_accumulate(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.request(0)
        bus.request(0)
        assert bus.stats.busy_cycles == 32
        assert bus.stats.transfers == 2

    def test_queue_cycles(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.request(0)
        bus.request(0)  # waits 16
        assert bus.stats.queue_cycles == 16

    def test_utilization(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.request(0)
        assert bus.stats.utilization(64) == pytest.approx(0.25)
        assert bus.stats.utilization(0) == 0.0

    def test_utilization_clamped_to_one(self):
        bus = MemoryBus(cycles_per_block=100)
        bus.request(0)
        assert bus.stats.utilization(10) == 1.0

    def test_transfer_kinds(self):
        bus = MemoryBus()
        bus.request(0, "data")
        bus.request(0, "merkle")
        bus.request(0, "merkle")
        assert bus.stats.transfers_by_kind == {"data": 1, "merkle": 2}

    def test_reset(self):
        bus = MemoryBus()
        bus.request(0)
        bus.reset()
        assert bus.free_at == 0
        assert bus.stats.transfers == 0


class TestCredit:
    def test_credit_settles_batched_tallies(self):
        bus = MemoryBus(cycles_per_block=16)
        bus.credit(3, 48.0, 5.0, {"data": 2, "merkle": 1}, 90.0)
        assert bus.stats.transfers == 3
        assert bus.stats.busy_cycles == 48.0
        assert bus.stats.queue_cycles == 5.0
        assert bus.stats.transfers_by_kind == {"data": 2, "merkle": 1}
        assert bus.free_at == 90.0

    def test_credit_never_moves_bus_time_backwards(self):
        """Regression: settling a batch out of order must clamp, not

        overwrite — ``_free_at = free_at`` unconditionally let a stale
        batch rewind bus time behind already-settled traffic, making the
        next request start inside a block the bus already shipped.
        """
        bus = MemoryBus(cycles_per_block=16)
        bus.request(100)  # bus busy until 116
        bus.credit(1, 16.0, 0.0, {"data": 1}, 50.0)  # stale batch
        assert bus.free_at == 116
        start, _ = bus.request(100)
        assert start == 116  # still queues behind the live transfer

    def test_interleaved_credit_and_request(self):
        bus = MemoryBus(cycles_per_block=10)
        bus.request(0)  # busy until 10
        bus.credit(2, 20.0, 0.0, {"data": 2}, 40.0)  # later batch wins
        start, end = bus.request(5)
        assert (start, end) == (40, 50)
        bus.credit(1, 10.0, 0.0, {"data": 1}, 45.0)  # stale again
        start, _ = bus.request(5)
        assert start == 50
        assert bus.stats.transfers == 6  # three live + three credited


class TestDurations:
    """Duration quantization has one home: the bus's per-fraction memo."""

    @given(cycles=st.integers(min_value=1, max_value=64),
           fraction=st.sampled_from([1.0, 8 / 64, 16 / 64, 32 / 64]))
    def test_memoized_duration_equals_the_formula(self, cycles, fraction):
        bus = MemoryBus(cycles_per_block=cycles)
        expected = max(1, round(cycles * fraction))
        assert bus.duration(fraction) == expected
        assert bus.duration(fraction) == expected  # the memoized answer
        start, end = bus.request(0.0, "mac", fraction)
        assert end - start == expected
        assert bus.stats.busy_cycles == expected

    def test_cycles_per_block_is_read_only(self):
        bus = MemoryBus(cycles_per_block=16)
        with pytest.raises(AttributeError):
            bus.cycles_per_block = 8
        assert bus.cycles_per_block == 16
        assert bus.duration() == 16
