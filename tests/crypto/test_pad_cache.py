"""The pad memo: byte-identical ciphertext, bounded growth, honest stats.

The fastpath claim is that memoizing pads cannot change a single output
byte (a pad is a pure function of key and seed). These tests pin that
claim at every granularity the memo operates on: per-seed pads, whole-
block pads, and the end-to-end functional machine.
"""

import pytest

from repro import fastpath
from repro.core.machine import SecureMemorySystem
from repro.core.config import MachineConfig
from repro.crypto.ctr_mode import (
    CHUNKS_PER_BLOCK,
    MEMORY_BLOCK_SIZE,
    CounterModeCipher,
    PadGenerator,
)
from repro.crypto.engine import PadCache

KEY = bytes(range(16))
SEEDS = (11, 22, 33, 44)


class TestPadCache:
    def test_miss_then_hit(self):
        cache = PadCache()
        assert cache.lookup(KEY, 7) is None
        cache.insert(KEY, 7, b"x" * 16)
        assert cache.lookup(KEY, 7) == b"x" * 16
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_keyed_by_key_and_seed(self):
        cache = PadCache()
        cache.insert(KEY, 7, b"a" * 16)
        assert cache.lookup(b"other-key-16byte", 7) is None
        assert cache.lookup(KEY, 8) is None

    def test_lru_bound(self):
        cache = PadCache(capacity=4)
        for seed in range(6):
            cache.insert(KEY, seed, bytes([seed]) * 16)
        assert len(cache) == 4
        assert cache.lookup(KEY, 0) is None  # evicted
        assert cache.lookup(KEY, 5) is not None

    def test_lookup_refreshes_lru(self):
        cache = PadCache(capacity=2)
        cache.insert(KEY, 1, b"a" * 16)
        cache.insert(KEY, 2, b"b" * 16)
        cache.lookup(KEY, 1)  # 1 becomes MRU
        cache.insert(KEY, 3, b"c" * 16)  # evicts 2, not 1
        assert cache.lookup(KEY, 1) is not None
        assert cache.lookup(KEY, 2) is None

    def test_insert_refreshes_lru(self):
        """Regression: re-inserting a resident pad must refresh recency.

        ``OrderedDict`` assignment to an existing key keeps the old
        position, so without an explicit ``move_to_end`` a freshly
        re-inserted pad kept its stale LRU slot and was evicted as if
        cold.
        """
        cache = PadCache(capacity=2)
        cache.insert(KEY, 1, b"a" * 16)
        cache.insert(KEY, 2, b"b" * 16)
        cache.insert(KEY, 1, b"a" * 16)  # re-insert: 1 becomes MRU
        cache.insert(KEY, 3, b"c" * 16)  # must evict 2, not 1
        assert cache.lookup(KEY, 1) is not None
        assert cache.lookup(KEY, 2) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PadCache(capacity=0)


class TestPadEquivalence:
    def test_cached_pads_byte_identical(self):
        uncached = PadGenerator(KEY, fast=True, cache=None)
        cached = PadGenerator(KEY, fast=True, cache=PadCache())
        for seed in SEEDS:
            assert cached.pad(seed) == uncached.pad(seed)
            assert cached.pad(seed) == uncached.pad(seed)  # hit path too

    def test_block_pad_int_matches_per_seed_pads(self):
        gen = PadGenerator(KEY, fast=True, cache=PadCache())
        joined = b"".join(gen.pad(seed) for seed in SEEDS)
        assert gen.block_pad_int(SEEDS) == int.from_bytes(joined, "big")
        assert gen.block_pad_int(list(SEEDS)) == int.from_bytes(joined, "big")

    def test_cipher_identical_cache_on_and_off(self):
        block = bytes(range(64))
        with fastpath.forced(True):
            fast = CounterModeCipher(KEY, fast=True)
            assert fast.pad_cache is not None
            out_fast = fast.apply(block, SEEDS)
        with fastpath.forced(False):
            reference = CounterModeCipher(KEY, fast=True)
            assert reference.pad_cache is None
            out_ref = reference.apply(block, SEEDS)
        assert out_fast == out_ref
        assert fast.apply(out_fast, SEEDS) == block  # decrypt round-trips

    def test_pad_int_apply_matches_apply(self):
        block = bytes(range(64))
        with fastpath.forced(True):
            cipher = CounterModeCipher(KEY, fast=True)
        pad = cipher.pad_int(SEEDS)
        assert cipher.apply_pad_int(block, pad) == cipher.apply(block, SEEDS)
        with pytest.raises(ValueError):
            cipher.apply_pad_int(b"short", pad)

    def test_validation_unchanged(self):
        with fastpath.forced(True):
            cipher = CounterModeCipher(KEY, fast=True)
        with pytest.raises(ValueError):
            cipher.apply(bytes(32), SEEDS)
        with pytest.raises(ValueError):
            cipher.apply(bytes(MEMORY_BLOCK_SIZE), SEEDS[:2])
        assert CHUNKS_PER_BLOCK == 4


class TestMachineEquivalence:
    def test_functional_machine_identical_either_gate(self):
        """Same writes, same reads, same DRAM image — gate on or off."""
        images = {}
        reads = {}
        for state in (False, True):
            with fastpath.forced(state):
                machine = SecureMemorySystem(
                    MachineConfig.preset("aise+bmt", physical_bytes=4 * 4096)
                )
                machine.boot()
                for i in range(8):
                    machine.write_block(i * 64, bytes([i]) * 64)
                machine.write_block(0, b"overwrite".ljust(64, b"\0"))
                reads[state] = [machine.read_block(i * 64) for i in range(8)]
                images[state] = [machine.memory.read_block(i * 64) for i in range(8)]
        assert reads[False] == reads[True]
        assert images[False] == images[True]

    def test_decrypt_pad_memo_is_bounded(self):
        """More distinct decrypts than the memo holds: bounded, same bytes."""
        pages = PadCache.DEFAULT_CAPACITY // 64 + 8
        plains = {}
        for state in (False, True):
            with fastpath.forced(state):
                machine = SecureMemorySystem(
                    MachineConfig.preset("aise", physical_bytes=pages * 4096))
                machine.boot()
                enc = machine.encryption
                # Two passes: the second decrypts evicted keys again.
                plains[state] = [enc.decrypt(paddr, bytes(range(64)))
                                 for _ in range(2)
                                 for paddr in range(0, pages * 4096, 64)]
        assert len(enc._pad_memo) <= PadCache.DEFAULT_CAPACITY
        assert plains[True] == plains[False]
