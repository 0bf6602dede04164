"""Counter-mode pad generation and block encryption (paper section 4.1).

A 64-byte memory block is four 16-byte *chunks*. Each chunk is encrypted
by XOR with a cryptographic pad ``E_K(seed)`` where the seed embeds the
chunk id, so pads are unique per chunk (paper footnote 1). The seed for
chunk ``i`` of a block is supplied by a seed scheme (``repro.core.seeds``);
this module only turns seeds into pads and applies them.

Like the hardware it models, the same routine performs encryption and
decryption (XOR with the same pad).

Fast path (:mod:`repro.fastpath`): pads memoize in a bounded
:class:`~repro.crypto.engine.PadCache` keyed by ``(key, seed)`` — a pad
is a pure function of both, so the memo cannot change a single output
byte — and the per-block XOR applies as one 512-bit integer operation
instead of a byte-at-a-time Python loop. With the gate off, the
reference implementations below run instead; the equivalence tests and
``tests/crypto/test_pad_cache.py`` assert both sides agree byte for
byte.
"""

from __future__ import annotations

import hashlib

from .. import fastpath
from .aes import AES, BLOCK_SIZE as CHUNK_SIZE
from .engine import PadCache

MEMORY_BLOCK_SIZE = 64  # bytes, one cache line
CHUNKS_PER_BLOCK = MEMORY_BLOCK_SIZE // CHUNK_SIZE  # 4

_SEED_MASK = (1 << 128) - 1


class PadGenerator:
    """Generates cryptographic pads from 128-bit seeds with a secret key.

    ``cache`` is a :class:`~repro.crypto.engine.PadCache` memoizing
    ``(key, seed) -> pad``; pass None for the uncached reference
    behaviour (the default follows the :mod:`repro.fastpath` gate at
    construction time).
    """

    def __init__(self, key: bytes, fast: bool = False, cache: PadCache | None = None):
        self.key = bytes(key)
        self._aes = None if fast else AES(self.key)
        # Keyed BLAKE2s as a fast PRF stand-in for AES; same interface,
        # same uniqueness properties for simulation purposes. Keyed once,
        # copied per seed (the digest equals a freshly keyed hash).
        self._keyed = hashlib.blake2s(key=self.key[:32], digest_size=CHUNK_SIZE) if fast else None
        if cache is None and fastpath.enabled():
            cache = PadCache()
        self.cache = cache

    def _generate(self, seed: int) -> bytes:
        seed_bytes = (seed & _SEED_MASK).to_bytes(CHUNK_SIZE, "big")
        keyed = self._keyed
        if keyed is not None:
            state = keyed.copy()
            state.update(seed_bytes)
            return state.digest()
        return self._aes.encrypt_block(seed_bytes)

    def pad(self, seed: int) -> bytes:
        """Return the 16-byte pad E_K(seed)."""
        cache = self.cache
        if cache is None:
            return self._generate(seed)
        pad = cache.lookup(self.key, seed)
        if pad is None:
            pad = self._generate(seed)
            cache.insert(self.key, seed, pad)
        return pad

    def block_pad_int(self, seeds) -> int:
        """The whole-block pad for ``seeds`` as one 512-bit integer.

        One memo probe per block instead of four per-seed probes: the
        cache key is the seed *tuple* (tuples and ints never collide as
        keys, so both granularities share one :class:`PadCache`). The
        value is pre-converted to an int because the sole caller XORs it
        into an int immediately.
        """
        if type(seeds) is not tuple:
            seeds = tuple(seeds)
        cache = self.cache
        if cache is None:
            return int.from_bytes(b"".join(map(self._generate, seeds)), "big")
        pad = cache.lookup(self.key, seeds)
        if pad is None:
            pad = int.from_bytes(b"".join(map(self._generate, seeds)), "big")
            cache.insert(self.key, seeds, pad)
        return pad


class CounterModeCipher:
    """Encrypts/decrypts 64-byte memory blocks chunk-by-chunk.

    ``seeds`` is the sequence of per-chunk seeds (one 128-bit int per
    chunk) produced by the active seed scheme for this block and counter
    value.
    """

    def __init__(self, key: bytes, fast: bool = False, cache: PadCache | None = None):
        self._pads = PadGenerator(key, fast=fast, cache=cache)
        self._int_xor = fastpath.enabled()

    @property
    def pad_cache(self) -> PadCache | None:
        """The pad memo serving this cipher (None in reference mode)."""
        return self._pads.cache

    def apply(self, block: bytes, seeds) -> bytes:
        if len(block) != MEMORY_BLOCK_SIZE:
            raise ValueError(f"memory block must be {MEMORY_BLOCK_SIZE} bytes, got {len(block)}")
        if len(seeds) != CHUNKS_PER_BLOCK:
            raise ValueError(f"expected {CHUNKS_PER_BLOCK} seeds, got {len(seeds)}")
        if not self._int_xor:
            return self._apply_reference(block, seeds)
        whole = int.from_bytes(block, "big") ^ self._pads.block_pad_int(seeds)
        return whole.to_bytes(MEMORY_BLOCK_SIZE, "big")

    def pad_int(self, seeds) -> int:
        """The whole-block pad for ``seeds`` as one 512-bit integer."""
        return self._pads.block_pad_int(seeds)

    def apply_pad_int(self, block: bytes, pad: int) -> bytes:
        """XOR ``block`` with a pad previously obtained from :meth:`pad_int`."""
        if len(block) != MEMORY_BLOCK_SIZE:
            raise ValueError(f"memory block must be {MEMORY_BLOCK_SIZE} bytes, got {len(block)}")
        whole = int.from_bytes(block, "big") ^ pad
        return whole.to_bytes(MEMORY_BLOCK_SIZE, "big")

    def _apply_reference(self, block: bytes, seeds) -> bytes:
        """Byte-at-a-time XOR: the pre-fastpath implementation, kept as
        the reference side of the throughput benchmark and the
        equivalence tests."""
        out = bytearray(MEMORY_BLOCK_SIZE)
        for chunk_id, seed in enumerate(seeds):
            pad = self._pads.pad(seed)
            base = chunk_id * CHUNK_SIZE
            for i in range(CHUNK_SIZE):
                out[base + i] = block[base + i] ^ pad[i]
        return bytes(out)

    # Encryption and decryption are the same XOR operation; aliases keep
    # call sites readable.
    encrypt = apply
    decrypt = apply
