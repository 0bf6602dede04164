"""Counter organizations: packing, overflow, GPC, global counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import (
    GlobalPageCounter,
    MINOR_MAX,
    MonotonicGlobalCounter,
    PageCounterBlock,
    SplitCounterBlock,
)
from repro.core.errors import CounterOverflowError


class TestPageCounterBlock:
    def test_serializes_to_one_memory_block(self):
        block = PageCounterBlock.fresh(lpid=7)
        assert len(block.to_bytes()) == 64  # 8B LPID + 56B of 7-bit minors

    def test_roundtrip(self):
        block = PageCounterBlock(lpid=0xDEADBEEF12345678, minors=[i % 128 for i in range(64)])
        restored = PageCounterBlock.from_bytes(block.to_bytes())
        assert restored.lpid == block.lpid
        assert restored.minors == block.minors

    def test_fresh_is_zeroed(self):
        block = PageCounterBlock.fresh(lpid=1)
        assert block.minors == [0] * 64

    def test_increment(self):
        block = PageCounterBlock.fresh(lpid=1)
        assert block.increment(5) is False
        assert block.minors[5] == 1

    def test_increment_overflow_wraps_and_reports(self):
        block = PageCounterBlock.fresh(lpid=1)
        block.minors[3] = MINOR_MAX
        assert block.increment(3) is True
        assert block.minors[3] == 0

    def test_minor_max_is_7_bits(self):
        assert MINOR_MAX == 127

    def test_rejects_out_of_range_values(self):
        block = PageCounterBlock(lpid=1, minors=[128] + [0] * 63)
        with pytest.raises(ValueError):
            block.to_bytes()
        with pytest.raises(ValueError):
            PageCounterBlock(lpid=1 << 64, minors=[0] * 64).to_bytes()

    def test_rejects_wrong_raw_size(self):
        with pytest.raises(ValueError):
            PageCounterBlock.from_bytes(bytes(63))

    @settings(max_examples=40, deadline=None)
    @given(lpid=st.integers(min_value=0, max_value=2**64 - 1),
           minors=st.lists(st.integers(min_value=0, max_value=127), min_size=64, max_size=64))
    def test_roundtrip_property(self, lpid, minors):
        block = PageCounterBlock(lpid=lpid, minors=list(minors))
        restored = PageCounterBlock.from_bytes(block.to_bytes())
        assert (restored.lpid, restored.minors) == (lpid, list(minors))


def _packed_from_scratch(block: PageCounterBlock) -> bytes:
    """The counter block's bytes, packed field by field."""
    packed = 0
    for i, minor in enumerate(block.minors):
        packed |= minor << (7 * i)
    return block.lpid.to_bytes(8, "big") + packed.to_bytes(56, "little")


_SLOT = st.integers(min_value=0, max_value=63)
_COUNTER_OPS = st.one_of(
    st.tuples(st.just("increment"), _SLOT),
    st.tuples(st.just("near_wrap"), _SLOT, st.integers(min_value=125, max_value=127)),
    st.tuples(st.just("poke"), _SLOT, st.integers(min_value=0, max_value=127)),
    st.tuples(st.just("poke_out_of_range"), _SLOT, st.sampled_from([-5, -1, 128, 999])),
    st.tuples(st.just("poke_then_increment"), _SLOT, st.sampled_from([-5, -2, 130, 999])),
    st.tuples(st.just("replace_list"), st.integers(min_value=0, max_value=127)),
    st.tuples(st.just("reload")),
)


class TestPackedMinorsStayInStep:
    """``increment`` keeps the packed minor field in step; ``to_bytes``
    must still equal a from-scratch packing after any interleaving of
    increments (including the 127 -> 0 wrap), reloads and minors written
    behind the API — and must still reject an out-of-range minor."""

    @settings(max_examples=150, deadline=None)
    @given(lpid=st.integers(min_value=0, max_value=2**64 - 1),
           start=st.none() | st.lists(st.integers(min_value=0, max_value=127),
                                      min_size=64, max_size=64),
           ops=st.lists(_COUNTER_OPS, max_size=40))
    def test_to_bytes_equals_packing_from_scratch(self, lpid, start, ops):
        from repro.core.sanitizer import sanitized

        if start is None:
            block = PageCounterBlock.fresh(lpid)
        else:
            block = PageCounterBlock(lpid=lpid, minors=list(start))
        # Out-of-range pokes model writes that bypassed the API; the armed
        # sanitizer would stop the next increment (tested in test_sanitizer).
        with sanitized(counter_monotonicity=False):
            for op in ops:
                kind = op[0]
                if kind == "increment":
                    old = block.minors[op[1]]
                    wraps = old + 1 > MINOR_MAX
                    assert block.increment(op[1]) is wraps
                    assert block.minors[op[1]] == (0 if wraps else old + 1)
                elif kind == "near_wrap":
                    block.minors[op[1]] = op[2]
                    for _ in range(MINOR_MAX + 1 - op[2]):
                        block.increment(op[1])
                    assert block.minors[op[1]] == 0
                elif kind in ("poke", "poke_out_of_range"):
                    block.minors[op[1]] = op[2]
                elif kind == "poke_then_increment":
                    block.minors[op[1]] = op[2]
                    block.increment(op[1])
                elif kind == "replace_list":
                    block.minors = [op[1]] * 64
                elif all(0 <= minor <= MINOR_MAX for minor in block.minors):
                    block = PageCounterBlock.from_bytes(block.to_bytes())
                if all(0 <= minor <= MINOR_MAX for minor in block.minors):
                    assert block.to_bytes() == _packed_from_scratch(block)
                else:
                    with pytest.raises(ValueError):
                        block.to_bytes()

    def test_a_minor_written_behind_the_api_still_raises(self):
        block = PageCounterBlock.fresh(lpid=3)
        block.increment(4)
        block.to_bytes()
        block.minors[4] = 128
        with pytest.raises(ValueError):
            block.to_bytes()
        block.minors[4] = 2
        assert block.to_bytes() == _packed_from_scratch(block)

    @pytest.mark.parametrize("poked", [-5, -2, -100])
    def test_an_increment_does_not_launder_a_minor_written_behind_the_api(self, poked):
        from repro.core.sanitizer import sanitized

        block = PageCounterBlock.fresh(lpid=3)
        block.minors[9] = 5
        block.to_bytes()
        block.minors[9] = poked
        # The increment moves the poked minor but leaves it out of range,
        # so the next store must still refuse it.
        with sanitized(counter_monotonicity=False):
            block.increment(9)
        with pytest.raises(ValueError):
            block.to_bytes()
        block.minors[9] = 7
        assert block.to_bytes() == _packed_from_scratch(block)


class TestSplitCounterBlock:
    def test_overflow_bumps_major(self):
        block = SplitCounterBlock.fresh()
        block.minors[0] = MINOR_MAX
        assert block.increment(0) is True
        assert block.major == 1
        assert block.minors[0] == 0

    def test_roundtrip(self):
        block = SplitCounterBlock(major=42, minors=[1] * 64)
        restored = SplitCounterBlock.from_bytes(block.to_bytes())
        assert (restored.major, restored.minors) == (42, [1] * 64)

    def test_same_layout_as_page_counter_block(self):
        """AISE replaces the split counter's major with the LPID — the
        64-byte layout is identical (paper section 4.3)."""
        split = SplitCounterBlock(major=99, minors=[3] * 64)
        aise = PageCounterBlock(lpid=99, minors=[3] * 64)
        assert split.to_bytes() == aise.to_bytes()


class TestGlobalPageCounter:
    def test_monotonic_unique(self):
        gpc = GlobalPageCounter()
        values = [gpc.next_lpid() for _ in range(100)]
        assert len(set(values)) == 100
        assert values == sorted(values)

    def test_never_issues_zero(self):
        """LPID 0 means 'page never assigned' in the counter block."""
        gpc = GlobalPageCounter()
        assert gpc.next_lpid() >= 1
        with pytest.raises(ValueError):
            GlobalPageCounter(initial=0)

    def test_survives_reboot_via_state(self):
        gpc = GlobalPageCounter()
        gpc.next_lpid()
        gpc.next_lpid()
        state = gpc.save_state()
        rebooted = GlobalPageCounter()
        rebooted.restore_state(state)
        assert rebooted.next_lpid() == 3

    def test_exhaustion_guard(self):
        gpc = GlobalPageCounter(initial=(1 << 64) - 1)
        gpc.next_lpid()
        with pytest.raises(CounterOverflowError):
            gpc.next_lpid()


class TestMonotonicGlobalCounter:
    def test_increments_per_write(self):
        counter = MonotonicGlobalCounter(bits=64)
        assert counter.next_value() == 1
        assert counter.next_value() == 2

    def test_wrap_detected(self):
        counter = MonotonicGlobalCounter(bits=4)
        for _ in range(15):
            counter.next_value()
        assert counter.wraps == 0
        assert counter.next_value() == 1  # wrapped
        assert counter.wraps == 1

    def test_small_counters_wrap_often(self):
        """The motivation for 64-bit global counters (section 4.1)."""
        counter = MonotonicGlobalCounter(bits=4)
        for _ in range(100):
            counter.next_value()
        assert counter.wraps == 6
