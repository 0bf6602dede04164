"""Per-block MAC storage and the MAC-only integrity baseline.

A MAC region in physical memory holds one MAC per covered data block.
The MAC-only scheme ([Lie et al. ASPLOS'00]-style, paper section 5)
authenticates each block independently with M = H_K(ciphertext || addr):
it detects spoofing and splicing but **not replay** — rolling back a
(block, MAC) pair to an older consistent version passes verification.
The test suite demonstrates that gap; the paper's BMT closes it by
binding the counter (whose integrity the bonsai tree guarantees) into
the MAC.
"""

from __future__ import annotations

from ..crypto.mac import MacFunction
from ..mem.dram import BlockMemory
from ..mem.layout import BLOCK_SIZE
from ..core.errors import IntegrityError


class MacStore:
    """Per-block MACs packed into 64-byte blocks of a memory region.

    Block ``i``'s MAC lives at ``base + i * mac_bytes`` inside the store's
    region; reads and writes go through the underlying (attackable)
    memory block by block.
    """

    def __init__(self, memory: BlockMemory, base: int, covered_start: int, covered_bytes: int, mac_bytes: int):
        self.memory = memory
        self.base = base
        self.covered_start = covered_start
        self.covered_bytes = covered_bytes
        self.mac_bytes = mac_bytes
        self.macs_per_block = BLOCK_SIZE // mac_bytes

    @property
    def region_bytes(self) -> int:
        blocks = self.covered_bytes // BLOCK_SIZE
        mac_blocks = (blocks + self.macs_per_block - 1) // self.macs_per_block
        return mac_blocks * BLOCK_SIZE

    def _locate(self, address: int) -> tuple[int, int]:
        """(mac_block_address, offset) of the MAC for a covered address."""
        if not self.covered_start <= address < self.covered_start + self.covered_bytes:
            raise ValueError(f"address {address:#x} outside MAC-covered range")
        index = (address - self.covered_start) // BLOCK_SIZE
        byte_offset = index * self.mac_bytes
        return self.base + (byte_offset // BLOCK_SIZE) * BLOCK_SIZE, byte_offset % BLOCK_SIZE

    def mac_block_address(self, address: int) -> int:
        """Address of the 64B MAC block for a covered address (timing model hook)."""
        return self._locate(address)[0]

    def load(self, address: int) -> bytes:
        block_addr, offset = self._locate(address)
        raw = self.memory.read_block(block_addr)
        return raw[offset : offset + self.mac_bytes]

    def store(self, address: int, mac: bytes) -> None:
        if len(mac) != self.mac_bytes:
            raise ValueError(f"MAC must be {self.mac_bytes} bytes, got {len(mac)}")
        block_addr, offset = self._locate(address)
        raw = self.memory.read_block(block_addr)
        self.memory.write_block(block_addr, raw[:offset] + mac + raw[offset + self.mac_bytes :])


class MacOnlyIntegrity:
    """Spoofing/splicing detection via one address-bound MAC per block."""

    kind = "mac_only"
    detects_replay = False

    def __init__(self, memory: BlockMemory, store: MacStore, mac: MacFunction):
        self.memory = memory
        self.store = store
        self.mac = mac
        self.verifications = 0

    def _compute(self, address: int, cipher: bytes) -> bytes:
        return self.mac.compute(cipher + address.to_bytes(8, "big"))

    def verify_data(self, address: int, cipher: bytes, counter: int = 0) -> None:
        self.verifications += 1
        stored = self.store.load(address)
        if self._compute(address, cipher) != stored:
            raise IntegrityError(
                f"block MAC mismatch at {address:#x}", address=address, kind="mac"
            )

    def update_data(self, address: int, cipher: bytes, counter: int = 0) -> None:
        self.store.store(address, self._compute(address, cipher))

    # Counter blocks are not protected by this baseline.
    def verify_metadata(self, address: int, raw: bytes) -> None:
        return None

    def update_metadata(self, address: int, raw: bytes) -> None:
        return None
