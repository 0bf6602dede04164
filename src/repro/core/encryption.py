"""Functional memory encryption engines.

Each engine turns plaintext cache blocks into the ciphertext that lives in
(attackable) DRAM and back, managing whatever counter storage its seed
scheme requires. Counter storage itself resides in a dedicated region of
physical memory — where the integrity scheme can (or, for the baselines
that don't protect it, cannot) see it — and is cached on-chip through a
small write-through functional counter cache.

Engines report, per block, a *counter tag*: the value the Bonsai scheme
binds into per-block MACs (LPID||minor for AISE, the stamped counter for
the global scheme, the per-block counter for address-based schemes).

Overflow behaviour follows the paper:

* AISE — a minor-counter wrap assigns a fresh LPID from the GPC and
  re-encrypts only that page (section 4.3).
* Global counter — a wrap forces a whole-memory re-encryption under a new
  key (section 4.1); the engine performs it and counts it.
* Address-based — per-block counters wide enough not to wrap in practice.
"""

from __future__ import annotations

from collections import deque

from .. import fastpath
from ..crypto.aes import AES
from ..crypto.ctr_mode import CounterModeCipher
from ..crypto.engine import PadCache
from ..mem.dram import BlockMemory
from ..mem.layout import (
    BLOCK_SIZE,
    BLOCKS_PER_PAGE,
    CHUNK_SIZE,
    CHUNKS_PER_BLOCK,
    PAGE_SIZE,
    block_in_page,
)
from .counters import (
    GlobalPageCounter,
    MINOR_MAX,
    MonotonicGlobalCounter,
    PageCounterBlock,
)
from .seeds import (
    AiseSeedScheme,
    GlobalCounterSeedScheme,
    PhysicalAddressSeedScheme,
    SeedInput,
    SeedScheme,
    VirtualAddressSeedScheme,
)


class AccessContext:
    """Per-access OS-supplied context (virtual address, process id).

    Only the address-based baseline schemes need it; AISE deliberately
    does not (that independence is the contribution).
    """

    __slots__ = ("vaddr", "pid")

    def __init__(self, vaddr: int = 0, pid: int = 0):
        self.vaddr = vaddr
        self.pid = pid


NULL_CONTEXT = AccessContext()


class EncryptionEngine:
    """Interface shared by all engines."""

    name = "abstract"
    uses_counters = False

    # Wired by the machine: called to verify/update counter-region blocks
    # through the integrity scheme, to verify data blocks (ciphertext +
    # counter tag) before a re-encryption path trusts their plaintext,
    # and to rewrite data blocks during page/memory re-encryption.
    metadata_verify = staticmethod(lambda addr, raw: None)
    metadata_update = staticmethod(lambda addr, raw: None)
    verify_block = staticmethod(lambda addr, cipher, tag: None)
    rewrite_block = staticmethod(lambda addr, cipher, tag: None)

    def counter_tag(self, paddr: int, ctx: AccessContext = NULL_CONTEXT) -> int:
        """Current counter value bound into this block's MAC (0 if none)."""
        return 0

    @property
    def pad_cache(self):
        """The fastpath keystream pad memo, if this engine has one.

        Resolved through the live cipher on every read: re-keying
        replaces the cipher (and with it the memo), and gauges bound via
        :func:`repro.obs.adapters.register_pad_cache` must follow. None
        for pad-less engines or with :mod:`repro.fastpath` disabled.
        """
        cipher = getattr(self, "_cipher", None)
        return cipher.pad_cache if cipher is not None else None

    def clear_volatile(self) -> None:
        """Drop volatile on-chip state (power cycle); a no-op by default."""
        return None

    def counter_block_address(self, paddr: int) -> int | None:
        """Counter-region block a fetch of ``paddr`` depends on, if any."""
        return None

    def decrypt(self, paddr: int, cipher: bytes, ctx: AccessContext = NULL_CONTEXT) -> bytes:
        raise NotImplementedError

    def encrypt_for_write(
        self, paddr: int, plain: bytes, ctx: AccessContext = NULL_CONTEXT
    ) -> tuple[bytes, int]:
        """Advance counters and encrypt. Returns (ciphertext, counter_tag)."""
        raise NotImplementedError


class NullEncryption(EncryptionEngine):
    """Unprotected baseline: plaintext in memory."""

    name = "none"

    def decrypt(self, paddr, cipher, ctx=NULL_CONTEXT):
        return cipher

    def encrypt_for_write(self, paddr, plain, ctx=NULL_CONTEXT):
        return plain, 0


class DirectEncryption(EncryptionEngine):
    """Direct (ECB-style) AES over each 16-byte chunk.

    The early-secure-processor baseline (section 2): decryption latency
    sits on the critical path, and equal plaintexts produce equal
    ciphertexts. No counters.
    """

    name = "direct"

    def __init__(self, key: bytes):
        self._aes = AES(key)

    def decrypt(self, paddr, cipher, ctx=NULL_CONTEXT):
        out = b""
        for chunk in range(CHUNKS_PER_BLOCK):
            out += self._aes.decrypt_block(cipher[chunk * CHUNK_SIZE : (chunk + 1) * CHUNK_SIZE])
        return out

    def encrypt_for_write(self, paddr, plain, ctx=NULL_CONTEXT):
        out = b""
        for chunk in range(CHUNKS_PER_BLOCK):
            out += self._aes.encrypt_block(plain[chunk * CHUNK_SIZE : (chunk + 1) * CHUNK_SIZE])
        return out, 0


class AiseEncryption(EncryptionEngine):
    """AISE: LPID-seeded counter mode with per-page counter blocks."""

    name = "aise"
    uses_counters = True

    def __init__(
        self,
        key: bytes,
        memory: BlockMemory,
        counter_base: int,
        gpc: GlobalPageCounter,
        fast_crypto: bool = True,
        seed_audit=None,
    ):
        self._cipher = CounterModeCipher(key, fast=fast_crypto)
        self.memory = memory
        self.counter_base = counter_base
        self.gpc = gpc
        self.scheme: SeedScheme = AiseSeedScheme()
        self.seed_audit = seed_audit
        self._cache: dict[int, PageCounterBlock] = {}  # page index -> parsed block
        # Fast path: (paddr, lpid, minor) -> whole-block pad as an int.
        # The AISE seed tuple — and therefore the pad — is a pure
        # function of exactly that triple (plus the fixed key), so the
        # memo collapses seed construction and four pad derivations into
        # one dict probe. Any counter bump or page re-encryption changes
        # the key. Bounded like the pad cache, oldest insert evicted
        # first: _pad_order queues the keys, since a dict's
        # next(iter()) rescans the holes its own pops leave. None with
        # the gate off.
        self._pad_memo: dict | None = {} if fastpath.enabled() else None
        self._pad_order: deque = deque()
        self.page_reencryptions = 0
        self.pages_initialized = 0
        self.pads_generated = 0

    # -- counter-block plumbing ------------------------------------------------

    def counter_block_address(self, paddr: int) -> int:
        return self.counter_base + (paddr // PAGE_SIZE) * BLOCK_SIZE

    def _load(self, page_idx: int) -> PageCounterBlock:
        cached = self._cache.get(page_idx)
        if cached is not None:
            return cached
        address = self.counter_base + page_idx * BLOCK_SIZE
        raw = self.memory.read_block(address)
        self.metadata_verify(address, raw)
        block = PageCounterBlock.from_bytes(raw)
        self._cache[page_idx] = block
        return block

    def _store(self, page_idx: int, block: PageCounterBlock) -> None:
        address = self.counter_base + page_idx * BLOCK_SIZE
        raw = block.to_bytes()
        self.memory.write_block(address, raw)
        self.metadata_update(address, raw)
        self._cache[page_idx] = block

    def drop_cached_counters(self, page_idx: int) -> None:
        """Evict the on-chip copy (page swapped out / attack experiments)."""
        self._cache.pop(page_idx, None)

    def clear_volatile(self) -> None:
        """Power cycle: the on-chip counter cache empties; counter blocks
        in memory and the (non-volatile) GPC survive."""
        self._cache.clear()

    def has_cached_counters(self, page_idx: int) -> bool:
        """Whether the page's counter block is on-chip right now."""
        return page_idx in self._cache

    def page_counters(self, page_idx: int) -> PageCounterBlock:
        """The page's (verified) counter block, loading it if needed."""
        return self._load(page_idx)

    def decrypt_with_seeds(self, cipher: bytes, seeds) -> bytes:
        """Raw counter-mode decryption under caller-supplied seeds.

        The speculative path (counter prediction) generates candidate
        seeds itself; this applies them without touching counter state
        or the pad accounting of the architectural path.
        """
        return self._cipher.decrypt(cipher, seeds)

    def ensure_lpid(self, page_idx: int) -> PageCounterBlock:
        """Assign an LPID on first touch of a page (first allocation).

        Assignment is a page (re)initialization: every block of the page
        is re-encrypted under the fresh LPID so that integrity metadata
        computed for the pre-allocation content stays consistent.
        """
        block = self._load(page_idx)
        if block.lpid == 0:
            self._reencrypt_page(page_idx)
            self.pages_initialized += 1
            self.page_reencryptions -= 1  # allocation, not an overflow event
            block = self._load(page_idx)
        return block

    def install_counter_block(self, page_idx: int, raw: bytes) -> None:
        """Place a swapped-in counter block at its frame's slot (section 4.4)."""
        block = PageCounterBlock.from_bytes(raw)
        self._store(page_idx, block)

    def export_counter_block(self, page_idx: int) -> bytes:
        return self._load(page_idx).to_bytes()

    # -- seeds -------------------------------------------------------------------

    @staticmethod
    def _tag(lpid: int, minor: int) -> int:
        return (lpid << 7) | minor

    def _seed_input(self, paddr: int, block: PageCounterBlock) -> SeedInput:
        minor = block.minors[block_in_page(paddr)]
        return SeedInput(paddr=paddr, lpid=block.lpid, counter=minor)

    def counter_tag(self, paddr: int, ctx: AccessContext = NULL_CONTEXT) -> int:
        block = self._load(paddr // PAGE_SIZE)
        return self._tag(block.lpid, block.minors[block_in_page(paddr)])

    # -- data path ----------------------------------------------------------------

    def decrypt(self, paddr, cipher, ctx=NULL_CONTEXT):
        block = self._load(paddr // PAGE_SIZE)
        memo = self._pad_memo
        if memo is not None:
            key = (paddr, block.lpid, block.minors[block_in_page(paddr)])
            pad = memo.get(key)
            if pad is None:
                seeds = self.scheme.seeds_for_block(self._seed_input(paddr, block))
                pad = self._cipher.pad_int(seeds)
                if len(memo) >= PadCache.DEFAULT_CAPACITY:
                    del memo[self._pad_order.popleft()]
                memo[key] = pad
                self._pad_order.append(key)
            self.pads_generated += CHUNKS_PER_BLOCK
            return self._cipher.apply_pad_int(cipher, pad)
        seeds = self.scheme.seeds_for_block(self._seed_input(paddr, block))
        self.pads_generated += CHUNKS_PER_BLOCK
        return self._cipher.decrypt(cipher, seeds)

    def encrypt_for_write(self, paddr, plain, ctx=NULL_CONTEXT):
        page_idx = paddr // PAGE_SIZE
        bip = block_in_page(paddr)
        counters = self.ensure_lpid(page_idx)
        if counters.minors[bip] >= MINOR_MAX:
            self._reencrypt_page(page_idx, skip_block=bip)
            counters = self._load(page_idx)
        counters.increment(bip)  # cannot wrap: overflow handled above
        self._store(page_idx, counters)
        ctx_input = self._seed_input(paddr, counters)
        seeds = (
            self.seed_audit.record_encryption(ctx_input)
            if self.seed_audit is not None
            else self.scheme.seeds_for_block(ctx_input)
        )
        self.pads_generated += CHUNKS_PER_BLOCK
        return self._cipher.encrypt(plain, seeds), self._tag(counters.lpid, counters.minors[bip])

    def _fresh_counters(self, old: PageCounterBlock) -> PageCounterBlock:
        """The counter block a page re-encrypts under: a fresh LPID."""
        return PageCounterBlock.fresh(self.gpc.next_lpid())

    def _reencrypt_page(self, page_idx: int, skip_block: int | None = None) -> None:
        """Minor-counter overflow: fresh counter block, re-encrypt only this page."""
        old = self._load(page_idx)
        fresh = self._fresh_counters(old)
        page_base = page_idx * PAGE_SIZE
        for bip in range(BLOCKS_PER_PAGE):
            if bip == skip_block:
                continue  # about to be overwritten by the caller anyway
            paddr = page_base + bip * BLOCK_SIZE
            old_cipher = self.memory.read_block(paddr)
            # The page's blocks were fetched from attackable DRAM: check
            # them against their MACs before trusting their plaintext
            # enough to re-encrypt it under the fresh LPID.
            self.verify_block(paddr, old_cipher, self._tag(old.lpid, old.minors[bip]))
            old_seeds = self.scheme.seeds_for_block(
                SeedInput(paddr=paddr, lpid=old.lpid, counter=old.minors[bip])
            )
            plain = self._cipher.decrypt(old_cipher, old_seeds)
            new_seeds = self.scheme.seeds_for_block(
                SeedInput(paddr=paddr, lpid=fresh.lpid, counter=0)
            )
            new_cipher = self._cipher.encrypt(plain, new_seeds)
            self.pads_generated += 2 * CHUNKS_PER_BLOCK
            self.rewrite_block(paddr, new_cipher, self._tag(fresh.lpid, 0))
        self._store(page_idx, fresh)
        self.page_reencryptions += 1


class SplitCounterEncryption(AiseEncryption):
    """Split-counter baseline: AISE's storage layout, address-based seeds.

    The 64-bit field that AISE uses for the LPID holds a per-page *major
    counter* instead, and the physical block address joins the seed. The
    consequences tested against AISE: identical storage (1.6%) and
    latency-hiding, but pages must be re-encrypted when they change
    frames (the kernel treats this scheme like ``phys_addr`` on swap).
    """

    name = "split_ctr"

    def __init__(self, key, memory, counter_base, fast_crypto=True, seed_audit=None):
        # A GPC is unnecessary; pass a private one to satisfy the parent.
        super().__init__(
            key, memory, counter_base,
            gpc=GlobalPageCounter(), fast_crypto=fast_crypto, seed_audit=seed_audit,
        )
        from .seeds import SplitCounterSeedScheme

        self.scheme = SplitCounterSeedScheme()

    def ensure_lpid(self, page_idx: int) -> PageCounterBlock:
        # Major counters legitimately start at 0 — no allocation-time
        # page initialization is needed (and no LPID exists to assign).
        return self._load(page_idx)

    def _fresh_counters(self, old: PageCounterBlock) -> PageCounterBlock:
        """Minor overflow bumps the page's major counter."""
        return PageCounterBlock.fresh(old.lpid + 1)


class FlatCounterEncryption(EncryptionEngine):
    """Shared counter store of the flat-counter baselines.

    One ``stamp_bytes``-wide counter per data block, packed back to back
    in the counter region; the width is the scheme descriptor's
    ``stamp_bytes``, handed over by its ``build_engine``. Reads verify
    the counter block through the integrity scheme; writes
    read-modify-write it and re-anchor its metadata.
    """

    uses_counters = True

    def __init__(
        self,
        key: bytes,
        memory: BlockMemory,
        counter_base: int,
        stamp_bytes: int,
        fast_crypto: bool = True,
    ):
        self._cipher = CounterModeCipher(key, fast=fast_crypto)
        self.memory = memory
        self.counter_base = counter_base
        self.stamp_bytes = stamp_bytes
        self.pads_generated = 0

    def _counter_location(self, paddr: int) -> tuple[int, int]:
        block, offset = divmod(paddr // BLOCK_SIZE * self.stamp_bytes, BLOCK_SIZE)
        return self.counter_base + block * BLOCK_SIZE, offset

    def counter_block_address(self, paddr: int) -> int:
        return self._counter_location(paddr)[0]

    def read_counter(self, paddr: int) -> int:
        """The block's stored counter, its counter block verified first."""
        block_addr, offset = self._counter_location(paddr)
        raw = self.memory.read_block(block_addr)
        self.metadata_verify(block_addr, raw)
        return int.from_bytes(raw[offset : offset + self.stamp_bytes], "big")

    def _write_counter(self, paddr: int, value: int) -> None:
        block_addr, offset = self._counter_location(paddr)
        raw = bytearray(self.memory.read_block(block_addr))
        raw[offset : offset + self.stamp_bytes] = value.to_bytes(self.stamp_bytes, "big")
        self.memory.write_block(block_addr, bytes(raw))
        self.metadata_update(block_addr, bytes(raw))

    def counter_tag(self, paddr: int, ctx: AccessContext = NULL_CONTEXT) -> int:
        return self.read_counter(paddr)


class GlobalCounterEncryption(FlatCounterEncryption):
    """Global-counter baseline: every writeback stamps the next value.

    The stamp is stored alongside the block (``stamp_bytes`` per 64B
    block) so it can be found at decryption time — the storage overhead
    Table 1 criticizes. Counter wrap triggers whole-memory re-encryption
    under a fresh key.
    """

    name = "global"

    def __init__(
        self,
        key: bytes,
        memory: BlockMemory,
        counter_base: int,
        stamp_bytes: int,
        fast_crypto: bool = True,
    ):
        super().__init__(key, memory, counter_base, stamp_bytes, fast_crypto)
        self._key = bytes(key)
        self._fast = fast_crypto
        bits = 8 * stamp_bytes
        self.global_counter = MonotonicGlobalCounter(bits)
        self.scheme = GlobalCounterSeedScheme(bits)
        self.memory_reencryptions = 0
        self._written: set[int] = set()  # block indices holding live ciphertext

    def decrypt(self, paddr, cipher, ctx=NULL_CONTEXT):
        stamp = self.read_counter(paddr)
        seeds = self.scheme.seeds_for_block(SeedInput(paddr=paddr, counter=stamp))
        self.pads_generated += CHUNKS_PER_BLOCK
        return self._cipher.decrypt(cipher, seeds)

    def encrypt_for_write(self, paddr, plain, ctx=NULL_CONTEXT):
        before = self.global_counter.wraps
        stamp = self.global_counter.next_value()
        if self.global_counter.wraps != before:
            self._reencrypt_everything()
            stamp = self.global_counter.next_value()
        self._write_counter(paddr, stamp)
        self._written.add(paddr)
        seeds = self.scheme.seeds_for_block(SeedInput(paddr=paddr, counter=stamp))
        self.pads_generated += CHUNKS_PER_BLOCK
        return self._cipher.encrypt(plain, seeds), stamp

    def _reencrypt_everything(self) -> None:
        """Counter wrap: new key, decrypt + re-encrypt all live blocks."""
        old_cipher_engine = self._cipher
        # Derive a new key; real hardware would generate a random one.
        import hashlib

        self._key = hashlib.blake2s(
            self._key, person=b"key-wrap", digest_size=32
        ).digest()[: len(self._key)]
        self._cipher = CounterModeCipher(self._key, fast=self._fast)
        for paddr in sorted(self._written):
            stamp = self.read_counter(paddr)
            raw = self.memory.read_block(paddr)
            # Each live block is checked against its MAC (bound to the
            # verified stamp) before its plaintext is re-keyed.
            self.verify_block(paddr, raw, stamp)
            seeds = self.scheme.seeds_for_block(SeedInput(paddr=paddr, counter=stamp))
            plain = old_cipher_engine.decrypt(raw, seeds)
            new_stamp = self.global_counter.next_value()
            self._write_counter(paddr, new_stamp)
            new_seeds = self.scheme.seeds_for_block(SeedInput(paddr=paddr, counter=new_stamp))
            new_cipher = self._cipher.encrypt(plain, new_seeds)
            self.pads_generated += 2 * CHUNKS_PER_BLOCK
            self.rewrite_block(paddr, new_cipher, new_stamp)
        self.memory_reencryptions += 1


class AddressSeedEncryption(FlatCounterEncryption):
    """Address-based baselines: physical- or virtual-address seeds.

    Per-block counters live packed in the counter region. The virtual
    variant needs the access context (vaddr, pid) on *every* access —
    the storage-in-L2 problem Table 1 notes — and the physical variant
    requires page re-encryption on swap, implemented in
    ``repro.osmodel.kernel`` for the comparison tests.
    """

    def __init__(
        self,
        key: bytes,
        memory: BlockMemory,
        counter_base: int,
        stamp_bytes: int,
        virtual: bool = False,
        include_pid: bool = True,
        fast_crypto: bool = True,
        seed_audit=None,
    ):
        super().__init__(key, memory, counter_base, stamp_bytes, fast_crypto)
        self.virtual = virtual
        self.name = "virt_addr" if virtual else "phys_addr"
        self.scheme: SeedScheme = (
            VirtualAddressSeedScheme(include_pid=include_pid)
            if virtual
            else PhysicalAddressSeedScheme()
        )
        self.seed_audit = seed_audit

    def _seed_input(self, paddr: int, counter: int, ctx: AccessContext) -> SeedInput:
        return SeedInput(paddr=paddr, vaddr=ctx.vaddr, pid=ctx.pid, counter=counter)

    def decrypt(self, paddr, cipher, ctx=NULL_CONTEXT):
        counter = self.read_counter(paddr)
        seeds = self.scheme.seeds_for_block(self._seed_input(paddr, counter, ctx))
        self.pads_generated += CHUNKS_PER_BLOCK
        return self._cipher.decrypt(cipher, seeds)

    def encrypt_for_write(self, paddr, plain, ctx=NULL_CONTEXT):
        counter = self.read_counter(paddr) + 1
        self._write_counter(paddr, counter)
        seed_input = self._seed_input(paddr, counter, ctx)
        seeds = (
            self.seed_audit.record_encryption(seed_input)
            if self.seed_audit is not None
            else self.scheme.seeds_for_block(seed_input)
        )
        self.pads_generated += CHUNKS_PER_BLOCK
        return self._cipher.encrypt(plain, seeds), counter

    # Used by the kernel to re-encrypt a page when it moves frames
    # (the physical-address scheme's swap obligation).
    def reencrypt_block_for_move(
        self, old_paddr: int, new_paddr: int, ctx: AccessContext = NULL_CONTEXT
    ) -> tuple[bytes, int]:
        old_cipher = self.memory.read_block(old_paddr)
        # MAC-check the block at its old frame before its plaintext is
        # re-encrypted for the new one (frame moves are adversary-visible).
        self.verify_block(old_paddr, old_cipher, self.read_counter(old_paddr))
        plain = self.decrypt(old_paddr, old_cipher, ctx)
        return self.encrypt_for_write(new_paddr, plain, ctx)
