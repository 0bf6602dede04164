"""Seed composition schemes for counter-mode memory encryption.

The security of counter-mode hinges on *global seed uniqueness* — spatial
(across blocks) and temporal (across versions of one block). The paper
contrasts four ways of achieving (or failing to achieve) it:

* ``global`` — one monotonic counter stamped on every writeback. Unique by
  construction but caches poorly and wraps (whole-memory re-encryption).
* ``phys_addr`` — physical block address + per-block counter. Unique in
  RAM, but page swaps relocate blocks: pages must be re-encrypted on swap
  and pads can be reused between a swapped-out page and its old frame.
* ``virt_addr`` — virtual address (+ optionally process ID) + per-block
  counter. Without the PID, different processes reuse pads; with it,
  shared-memory IPC, fork/COW and shared libraries break.
* ``aise`` (the paper's proposal) — logical page identifier + page offset
  + per-block minor counter + chunk id. Address-free, hence unique across
  physical and swap memory and over the machine's lifetime.

Each scheme packs its components into a 128-bit seed (one per 16-byte
chunk) and carries the qualitative properties reported in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .. import fastpath
from ..mem.layout import BLOCK_SIZE, CHUNKS_PER_BLOCK, block_in_page
from .errors import SeedReuseError

_SEED_MASK = (1 << 128) - 1
assert CHUNKS_PER_BLOCK == 4  # AiseSeedScheme._compose spells out the chunk ids


class SeedInput(NamedTuple):
    """Everything a seed scheme might need for one block access.

    Only the fields a given scheme uses need to be meaningful; the
    memory controller fills in whatever its configuration requires.
    Immutable and hashable (it keys the seed memo). A named tuple: one
    is built per protected write, and a tuple builds without a
    per-field ``__setattr__`` and hashes in C, where a frozen dataclass
    took ~2 µs to build.
    """

    paddr: int = 0  # block-aligned physical address
    vaddr: int = 0  # block-aligned virtual address
    pid: int = 0  # process id (virt_addr scheme)
    lpid: int = 0  # logical page identifier (AISE)
    counter: int = 0  # per-block counter or stamped global counter value


@dataclass(frozen=True)
class SchemeProperties:
    """The qualitative comparison axes of Table 1."""

    name: str
    ipc_support: str
    latency_hiding: str
    storage_overhead: str
    other_issues: str
    reencrypt_on_swap: bool
    supports_shared_memory: bool


class SeedScheme:
    """Base class: composes the four per-chunk seeds for one block.

    Under :mod:`repro.fastpath` the per-block seed tuples are *interned*:
    a seed is a pure function of the (immutable) scheme parameters and
    the :class:`SeedInput`, so identical inputs yield the one memoized
    tuple instead of recomposing four 128-bit integers per access. The
    memo is bounded (cleared wholesale at :attr:`MEMO_CAPACITY`) and
    disabled entirely when the gate is off, restoring the reference
    behaviour.
    """

    __slots__ = ("_seed_memo",)

    name = "abstract"

    #: Entries held in the per-scheme seed-tuple memo before a wholesale
    #: clear; every writeback bumps a counter and mints a fresh input, so
    #: the memo would otherwise grow with trace length.
    MEMO_CAPACITY = 8192

    def __init__(self):
        self._seed_memo: dict | None = {} if fastpath.enabled() else None

    def seed(self, ctx: SeedInput, chunk: int) -> int:
        raise NotImplementedError

    def _compose(self, ctx: SeedInput) -> tuple[int, ...]:
        """The block's seeds, one per chunk, masked to 128 bits."""
        return tuple(self.seed(ctx, chunk) & _SEED_MASK for chunk in range(CHUNKS_PER_BLOCK))

    def seeds_for_block(self, ctx: SeedInput) -> tuple[int, ...]:
        memo = self._seed_memo
        if memo is None:
            return self._compose(ctx)
        seeds = memo.get(ctx)
        if seeds is None:
            seeds = self._compose(ctx)
            if len(memo) >= self.MEMO_CAPACITY:
                memo.clear()
            memo[ctx] = seeds
        return seeds

    @property
    def properties(self) -> SchemeProperties:
        raise NotImplementedError


class AiseSeedScheme(SeedScheme):
    """AISE: seed = LPID | minor counter | page offset (block + chunk).

    Matches Figure 3: 64-bit LPID, 7-bit counter, 6-bit block-in-page,
    2-bit chunk id, zero-padded to 128 bits.
    """

    __slots__ = ()

    name = "aise"

    @staticmethod
    def _base(ctx: SeedInput) -> int:
        """The chunk-independent part of the seed: LPID, counter, block."""
        block = block_in_page(ctx.paddr if ctx.lpid else ctx.vaddr)
        return (ctx.lpid << 64) | (ctx.counter << 16) | (block << 8)

    def seed(self, ctx: SeedInput, chunk: int) -> int:
        return self._base(ctx) | chunk

    def _compose(self, ctx: SeedInput) -> tuple[int, ...]:
        # seed() for chunks 0..3 with the base computed once per block.
        # Spelled out because it runs on every protected write, and a
        # generator over the chunk ids is about five times slower.
        base = self._base(ctx) & _SEED_MASK
        return (base, base | 1, base | 2, base | 3)

    @property
    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            name="AISE",
            ipc_support="Yes",
            latency_hiding="Good",
            storage_overhead="Low (1.6%)",
            other_issues="None",
            reencrypt_on_swap=False,
            supports_shared_memory=True,
        )


class GlobalCounterSeedScheme(SeedScheme):
    """Global-counter baseline: seed = stamped counter value | chunk id."""

    __slots__ = ("bits", "name")

    def __init__(self, bits: int = 64):
        super().__init__()
        self.bits = bits
        self.name = f"global{bits}"

    def seed(self, ctx: SeedInput, chunk: int) -> int:
        return (ctx.counter << 8) | chunk

    @property
    def properties(self) -> SchemeProperties:
        per_block = self.bits / 8 / BLOCK_SIZE
        hiding = "Caching: Poor, Prediction: Difficult"
        storage = f"High ({self.bits}-bit: {per_block:.1%})"
        issues = "None" if self.bits >= 64 else "Frequent whole-memory re-encryption"
        return SchemeProperties(
            name=f"Global Counter ({self.bits}-bit)",
            ipc_support="Yes",
            latency_hiding=hiding,
            storage_overhead=storage,
            other_issues=issues,
            reencrypt_on_swap=False,
            supports_shared_memory=True,
        )


class PhysicalAddressSeedScheme(SeedScheme):
    """Baseline: seed = physical block address | per-block counter | chunk."""

    __slots__ = ()

    name = "phys_addr"

    def seed(self, ctx: SeedInput, chunk: int) -> int:
        block_number = ctx.paddr // BLOCK_SIZE
        return (block_number << 64) | (ctx.counter << 8) | chunk

    @property
    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            name="Counter (Phys Addr)",
            ipc_support="Yes",
            latency_hiding="Depends on counter size",
            storage_overhead="Depends on counter size",
            other_issues="Re-enc on page swap",
            reencrypt_on_swap=True,
            supports_shared_memory=True,
        )


class VirtualAddressSeedScheme(SeedScheme):
    """Baseline: seed = [PID |] virtual block address | counter | chunk.

    ``include_pid=False`` reproduces the pad-reuse vulnerability between
    processes that share virtual addresses; ``include_pid=True`` fixes the
    reuse but breaks shared-memory IPC (different processes see different
    seeds for the same physical block).
    """

    __slots__ = ("include_pid",)

    name = "virt_addr"

    def __init__(self, include_pid: bool = True):
        super().__init__()
        self.include_pid = include_pid

    def seed(self, ctx: SeedInput, chunk: int) -> int:
        block_number = ctx.vaddr // BLOCK_SIZE
        seed = (block_number << 64) | (ctx.counter << 8) | chunk
        if self.include_pid:
            seed |= ctx.pid << 96
        return seed

    @property
    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            name="Counter (Virt Addr)",
            ipc_support="No shared-memory IPC",
            latency_hiding="Depends on counter size",
            storage_overhead="Depends on counter size",
            other_issues="VA storage in L2; PIDs non-reusable",
            reencrypt_on_swap=False,
            supports_shared_memory=False,
        )


class SplitCounterSeedScheme(SeedScheme):
    """Split-counter baseline [Yan et al. ISCA'06]: seed = physical block
    address | 64-bit major counter | 7-bit minor counter | chunk id.

    Identical counter storage layout to AISE (one 64B block per page),
    but the *address* in the seed keeps the swap re-encryption obligation
    — the storage-efficiency of AISE without its OS-friendliness. AISE
    replaces the major counter with the LPID (paper section 4.3).
    """

    __slots__ = ()

    name = "split_ctr"

    def seed(self, ctx: SeedInput, chunk: int) -> int:
        block_number = ctx.paddr // BLOCK_SIZE
        # ctx.lpid carries the major counter for this scheme.
        return (block_number << 80) | (ctx.lpid << 16) | (ctx.counter << 8) | chunk

    @property
    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            name="Split Counter (Phys Addr)",
            ipc_support="Yes",
            latency_hiding="Good",
            storage_overhead="Low (1.6%)",
            other_issues="Re-enc on page swap",
            reencrypt_on_swap=True,
            supports_shared_memory=True,
        )


@dataclass
class SeedAudit:
    """Test instrumentation that detects pad (seed) reuse.

    Wraps a scheme and records every seed it emits for *encryption*; a
    repeat is the counter-mode break the paper's design rules out. Real
    hardware has no such detector — this exists so the test suite can
    demonstrate the vulnerabilities of the baseline schemes concretely.
    """

    scheme: SeedScheme
    _seen: set = field(default_factory=set)
    strict: bool = True
    reuses: int = 0

    def record_encryption(self, ctx: SeedInput) -> tuple[int, ...]:
        seeds = self.scheme.seeds_for_block(ctx)
        for seed in seeds:
            if seed in self._seen:
                self.reuses += 1
                if self.strict:
                    raise SeedReuseError(
                        f"scheme {self.scheme.name!r} reused seed {seed:#x}"
                    )
            else:
                self._seen.add(seed)
        return seeds

    @property
    def unique_seeds(self) -> int:
        return len(self._seen)


def make_seed_scheme(name: str) -> SeedScheme:
    """Factory mapping config identifiers to scheme objects."""
    if name == "aise":
        return AiseSeedScheme()
    if name == "global32":
        return GlobalCounterSeedScheme(32)
    if name == "global64":
        return GlobalCounterSeedScheme(64)
    if name == "phys_addr":
        return PhysicalAddressSeedScheme()
    if name == "virt_addr":
        return VirtualAddressSeedScheme()
    if name == "split_ctr":
        return SplitCounterSeedScheme()
    raise ValueError(f"no seed scheme named {name!r}")
