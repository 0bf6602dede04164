"""Microbenchmarks of the library's hot paths.

Not a paper artifact — these track the performance of the substrates
themselves (crypto, caches, trees, the functional datapath, and the
timing simulator's event loop), which bounds how big a sweep the
evaluation harness can afford.
"""

from repro.core import MachineConfig, SecureMemorySystem
from repro.crypto.aes import AES
from repro.crypto.ctr_mode import CounterModeCipher
from repro.crypto.hmac_sha1 import hmac_sha1
from repro.crypto.mac import Blake2Mac
from repro.crypto.sha1 import sha1
from repro.integrity.geometry import TreeGeometry
from repro.integrity.merkle import MerkleTree
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import BlockMemory
from repro.sim.simulator import TimingSimulator
from repro.workloads.synthetic import streaming_trace


class TestCryptoThroughput:
    def test_aes_encrypt_block(self, benchmark):
        cipher = AES(bytes(16))
        block = bytes(range(16))
        benchmark(cipher.encrypt_block, block)

    def test_sha1_1kb(self, benchmark):
        data = bytes(1024)
        benchmark(sha1, data)

    def test_hmac_sha1_64b(self, benchmark):
        benchmark(hmac_sha1, b"key", bytes(64))

    def test_blake2_mac_64b(self, benchmark):
        mac = Blake2Mac(b"key", 128)
        benchmark(mac.compute, bytes(64))

    def test_counter_mode_block_fast(self, benchmark):
        cipher = CounterModeCipher(b"k" * 16, fast=True)
        seeds = [1, 2, 3, 4]
        benchmark(cipher.encrypt, bytes(64), seeds)

    def test_counter_mode_block_aes(self, benchmark):
        cipher = CounterModeCipher(b"k" * 16, fast=False)
        seeds = [1, 2, 3, 4]
        benchmark(cipher.encrypt, bytes(64), seeds)


class TestStructures:
    def test_l2_lookup_hit(self, benchmark):
        cache = SetAssociativeCache(1 << 20, 8)
        cache.insert(0)
        benchmark(cache.lookup, 0)

    def test_l2_insert_evict(self, benchmark):
        cache = SetAssociativeCache(64 * 1024, 8)
        addresses = iter(range(0, 1 << 30, 64))

        def fill():
            cache.insert(next(addresses))

        benchmark(fill)

    def test_merkle_verify_cached_chain(self, benchmark):
        geometry = TreeGeometry(0, 1 << 20, 1 << 20, 16)
        memory = BlockMemory(geometry.nodes_end + 4096)
        tree = MerkleTree(memory, geometry, Blake2Mac(b"k", 128))
        tree.build()
        tree.verify(0)
        benchmark(tree.verify, 0)

    def test_merkle_update(self, benchmark):
        geometry = TreeGeometry(0, 1 << 20, 1 << 20, 16)
        memory = BlockMemory(geometry.nodes_end + 4096)
        tree = MerkleTree(memory, geometry, Blake2Mac(b"k", 128))
        tree.build()
        data = bytes(64)
        benchmark(tree.update, 0, data)


class TestFunctionalDatapath:
    def test_protected_write(self, benchmark):
        machine = SecureMemorySystem(MachineConfig.preset("aise+bmt", physical_bytes=64 * 4096))
        machine.boot()
        machine.write_block(0, bytes(64))  # allocate the page once
        benchmark(machine.write_block, 0, bytes(range(64)))

    def test_protected_read(self, benchmark):
        machine = SecureMemorySystem(MachineConfig.preset("aise+bmt", physical_bytes=64 * 4096))
        machine.boot()
        machine.write_block(0, bytes(range(64)))
        benchmark(machine.read_block, 0)

    def test_unprotected_write_baseline(self, benchmark):
        machine = SecureMemorySystem(
            MachineConfig(physical_bytes=64 * 4096, encryption="none", integrity="none")
        )
        machine.boot()
        benchmark(machine.write_block, 0, bytes(range(64)))


class TestSimulatorThroughput:
    def test_events_per_second_base(self, benchmark):
        trace = streaming_trace(20_000, 4 << 20)
        benchmark.pedantic(
            lambda: TimingSimulator(MachineConfig.preset("base")).run(trace), rounds=3, iterations=1
        )

    def test_events_per_second_full_protection(self, benchmark):
        trace = streaming_trace(20_000, 4 << 20)
        benchmark.pedantic(
            lambda: TimingSimulator(MachineConfig.preset("aise+bmt")).run(trace), rounds=3, iterations=1
        )


class TestSha256Throughput:
    def test_sha256_1kb(self, benchmark):
        from repro.crypto.sha256 import sha256

        benchmark(sha256, bytes(1024))

    def test_hmac_sha256_64b(self, benchmark):
        from repro.crypto.sha256 import hmac_sha256

        benchmark(hmac_sha256, b"key", bytes(64))
