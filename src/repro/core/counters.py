"""Counter organizations for counter-mode memory encryption.

The paper's AISE layout (section 4.3, Figure 3) co-stores, per 4KB page,
one 64-bit Logical Page IDentifier and 64 7-bit per-block minor counters
in a single 64-byte *counter block* — directly indexable from a physical
address, cacheable in the on-chip counter cache, and swapped to disk
alongside its page.

Also implemented here:

* the non-volatile :class:`GlobalPageCounter` (GPC) that issues LPIDs,
* the split-counter baseline layout (64-bit major + 7-bit minors, [Yan
  et al. ISCA'06]), and
* flat per-block counter stores for the global-counter and address-based
  baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mem.layout import BLOCK_SIZE, BLOCKS_PER_PAGE
from . import sanitizer
from .errors import CounterOverflowError

LPID_BITS = 64
MINOR_BITS = 7
MINOR_MAX = (1 << MINOR_BITS) - 1  # 127

_MINOR_FIELD_BYTES = BLOCKS_PER_PAGE * MINOR_BITS // 8  # 56
assert 8 + _MINOR_FIELD_BYTES == BLOCK_SIZE


class GlobalPageCounter:
    """The on-chip, non-volatile 64-bit counter that issues LPIDs.

    Values are never reused: every call to :meth:`next_lpid` returns a
    fresh identifier, and the counter survives "reboots" (modelled by
    :meth:`save_state` / :meth:`restore_state`, which a real chip gets
    for free from non-volatile storage).
    """

    BITS = 64

    def __init__(self, initial: int = 1):
        if initial <= 0:
            raise ValueError("GPC must start positive (0 is reserved for 'never assigned')")
        self._value = initial

    def next_lpid(self) -> int:
        if self._value >= (1 << self.BITS):
            # 2^64 pages at any realistic allocation rate outlives the
            # machine by millennia (paper section 4.3); this is a guard,
            # not an expected path.
            raise CounterOverflowError("global page counter exhausted")
        lpid = self._value
        self._value += 1
        if sanitizer.enabled("counter_monotonicity"):
            sanitizer.check(lpid >= 1, f"GPC issued LPID {lpid}; 0 is reserved for 'never assigned'")
        return lpid

    @property
    def value(self) -> int:
        return self._value

    def save_state(self) -> int:
        return self._value

    def restore_state(self, state: int) -> None:
        if sanitizer.enabled("counter_monotonicity"):
            sanitizer.check(state >= 1, "GPC state must be positive (LPID 0 is reserved)")
        self._value = state


@dataclass
class PageCounterBlock:
    """AISE per-page counter block: LPID + 64 minor counters (64 bytes).

    Every protected write bumps one minor and stores the whole block, so
    the packed 56-byte minor field is kept in step by :meth:`increment`
    instead of being re-packed from 64 fields on every store.
    ``_packed`` packs exactly the minors in ``_synced``; :meth:`to_bytes`
    uses it only while ``minors`` still equals ``_synced``, so a minor
    written behind the API (``minors[i] = ...``, a replaced list) takes
    the full re-pack, with its range check, just as before.
    """

    lpid: int
    minors: list[int]
    _packed: int = field(default=0, init=False, repr=False, compare=False)
    _synced: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def fresh(cls, lpid: int) -> "PageCounterBlock":
        block = cls(lpid=lpid, minors=[0] * BLOCKS_PER_PAGE)
        block._synced = [0] * BLOCKS_PER_PAGE
        return block

    def to_bytes(self) -> bytes:
        if not 0 <= self.lpid < (1 << LPID_BITS):
            raise ValueError(f"LPID {self.lpid} out of 64-bit range")
        minors = self.minors
        if minors != self._synced:
            packed = 0
            for i, minor in enumerate(minors):
                if not 0 <= minor <= MINOR_MAX:
                    raise ValueError(f"minor counter {minor} out of {MINOR_BITS}-bit range")
                packed |= minor << (MINOR_BITS * i)
            self._packed = packed
            self._synced = list(minors)
        return self.lpid.to_bytes(8, "big") + self._packed.to_bytes(_MINOR_FIELD_BYTES, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PageCounterBlock":
        if len(raw) != BLOCK_SIZE:
            raise ValueError(f"counter block must be {BLOCK_SIZE} bytes, got {len(raw)}")
        lpid = int.from_bytes(raw[:8], "big")
        packed = int.from_bytes(raw[8:], "little")
        minors = [(packed >> (MINOR_BITS * i)) & MINOR_MAX for i in range(BLOCKS_PER_PAGE)]
        block = cls(lpid=lpid, minors=minors)
        block._packed = packed
        block._synced = minors.copy()
        return block

    def increment(self, block_in_page: int) -> bool:
        """Bump one minor counter. Returns True if it wrapped (overflow).

        On overflow the caller must assign a fresh LPID and re-encrypt the
        page (paper section 4.3); the minor is reset to 0 here.
        """
        minors = self.minors
        old = minors[block_in_page]
        if sanitizer.enabled("counter_monotonicity"):
            # A minor outside its 7-bit range means something wrote the
            # counter behind this API's back — pad reuse waiting to happen.
            sanitizer.check(
                0 <= old <= MINOR_MAX,
                f"minor counter {old} out of {MINOR_BITS}-bit range before increment",
            )
        value = old + 1
        wrapped = value > MINOR_MAX
        if wrapped:
            value = 0
        minors[block_in_page] = value
        synced = self._synced
        # Only a minor the packing already holds moves in step; one written
        # behind the API leaves ``_synced`` stale, so ``to_bytes`` re-packs
        # and range-checks it.
        if synced is not None and synced[block_in_page] == old:
            self._packed += (value - old) << (MINOR_BITS * block_in_page)
            synced[block_in_page] = value
        return wrapped


@dataclass
class SplitCounterBlock:
    """Split-counter baseline: 64-bit major counter + 64 7-bit minors.

    Identical layout to :class:`PageCounterBlock` with the major counter
    where AISE puts the LPID. On minor overflow the major counter is
    incremented and the page re-encrypted. Provided as the prior-work
    organization AISE's storage cost is compared against (section 4.6).
    """

    major: int
    minors: list[int]

    @classmethod
    def fresh(cls) -> "SplitCounterBlock":
        return cls(major=0, minors=[0] * BLOCKS_PER_PAGE)

    def increment(self, block_in_page: int) -> bool:
        old = self.minors[block_in_page]
        if sanitizer.enabled("counter_monotonicity"):
            sanitizer.check(
                0 <= old <= MINOR_MAX,
                f"minor counter {old} out of {MINOR_BITS}-bit range before increment",
            )
        value = old + 1
        if value > MINOR_MAX:
            self.minors[block_in_page] = 0
            self.major += 1
            return True
        self.minors[block_in_page] = value
        return False

    def to_bytes(self) -> bytes:
        packed = 0
        for i, minor in enumerate(self.minors):
            packed |= minor << (MINOR_BITS * i)
        return self.major.to_bytes(8, "big") + packed.to_bytes(_MINOR_FIELD_BYTES, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SplitCounterBlock":
        block = PageCounterBlock.from_bytes(raw)
        return cls(major=block.lpid, minors=block.minors)


class FlatCounterStore:
    """Per-block counters of a fixed width, for the baseline schemes.

    The global-counter scheme stores, with every block, the global counter
    value it was encrypted under (8B per block for global64 — the 12.5%
    overhead of Table 1). Address-based schemes store a per-block counter
    incremented on each writeback.
    """

    def __init__(self, counter_bits: int):
        if counter_bits <= 0:
            raise ValueError("counter width must be positive")
        self.counter_bits = counter_bits
        self._max = (1 << counter_bits) - 1
        self._values: dict[int, int] = {}
        self.wraps = 0

    def get(self, block_index: int) -> int:
        return self._values.get(block_index, 0)

    def set(self, block_index: int, value: int) -> None:
        if value > self._max:
            raise CounterOverflowError(
                f"{self.counter_bits}-bit counter cannot hold {value}"
            )
        self._values[block_index] = value

    def increment(self, block_index: int) -> bool:
        """Bump a per-block counter; True if it wrapped to 0."""
        old = self._values.get(block_index, 0)
        if sanitizer.enabled("counter_monotonicity"):
            sanitizer.check(
                0 <= old <= self._max,
                f"{self.counter_bits}-bit block counter held {old} before increment",
            )
        value = old + 1
        if value > self._max:
            self._values[block_index] = 0
            self.wraps += 1
            return True
        self._values[block_index] = value
        return False

    @property
    def bytes_per_block(self) -> float:
        return self.counter_bits / 8


class MonotonicGlobalCounter:
    """The write counter of the global-counter encryption baseline.

    Incremented on *every* block writeback; when it wraps, the entire
    physical + swap memory must be re-encrypted under a new key (paper
    section 4.1). The wrap count is exposed so the evaluation can show how
    frequent whole-memory re-encryption becomes for small widths.
    """

    def __init__(self, bits: int):
        self.bits = bits
        self._max = (1 << bits) - 1
        self._value = 0
        self.wraps = 0

    def next_value(self) -> int:
        """Value to stamp on the block being written; advances the counter."""
        previous = self._value
        self._value += 1
        if self._value > self._max:
            self._value = 1
            self.wraps += 1
        if sanitizer.enabled("counter_monotonicity"):
            sanitizer.check(
                0 <= previous <= self._max,
                f"global counter held {previous}, outside its {self.bits}-bit range",
            )
            sanitizer.check(
                self._value == previous + 1 or (previous == self._max and self._value == 1),
                "global counter stepped non-monotonically",
            )
        return self._value

    @property
    def value(self) -> int:
        return self._value
