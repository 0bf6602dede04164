"""Page Root Directory: extending Merkle protection to swap memory.

The paper's section 5.1 insight: the physical memory is covered by the
Merkle tree, so it is *secure storage*. Dedicating a small region of it
to hold the page-root MAC of every swapped-out page makes the single
on-chip root cover the disk as well. Installing or reading a page root
goes through normal protected memory operations, so the directory itself
needs no special handling — the tree covers it.

The page root here is a MAC over the page's full swapped image (cipher-
text + counter block + per-block MACs), computed by the kernel's swap
path; see ``repro.osmodel.swap``.
"""

from __future__ import annotations

from ..mem.dram import BlockMemory
from ..mem.layout import BLOCK_SIZE
from ..core.errors import IntegrityError


class PageRootDirectory:
    """One MAC slot per swap-device page, in tree-covered physical memory.

    Reads and writes must go through the supplied ``metadata_read`` /
    ``metadata_write`` callbacks, which the machine wires to its integrity
    engine so directory accesses are themselves verified and re-anchored.
    """

    def __init__(
        self,
        memory: BlockMemory,
        base: int,
        swap_pages: int,
        mac_bytes: int,
        metadata_read=None,
        metadata_write=None,
    ):
        self.memory = memory
        self.base = base
        self.swap_pages = swap_pages
        self.mac_bytes = mac_bytes
        self.slots_per_block = BLOCK_SIZE // mac_bytes
        # Default to raw access; the machine overrides with verified access.
        self._read = metadata_read or (lambda addr: memory.read_block(addr))
        self._write = metadata_write or (lambda addr, raw: memory.write_block(addr, raw))
        self.installs = 0
        self.lookups = 0

    @property
    def region_bytes(self) -> int:
        blocks = (self.swap_pages + self.slots_per_block - 1) // self.slots_per_block
        return blocks * BLOCK_SIZE

    def _locate(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.swap_pages:
            raise IndexError(f"swap slot {slot} out of range (0..{self.swap_pages - 1})")
        byte_offset = slot * self.mac_bytes
        return self.base + (byte_offset // BLOCK_SIZE) * BLOCK_SIZE, byte_offset % BLOCK_SIZE

    def install(self, slot: int, page_root: bytes) -> None:
        """Record the page root of the page now occupying swap ``slot``."""
        if len(page_root) != self.mac_bytes:
            raise ValueError(f"page root must be {self.mac_bytes} bytes")
        block_addr, offset = self._locate(slot)
        raw = bytearray(self._read(block_addr))
        raw[offset : offset + self.mac_bytes] = page_root
        self._write(block_addr, bytes(raw))
        self.installs += 1

    def lookup(self, slot: int) -> bytes:
        """Fetch (with verification) the page root for swap ``slot``."""
        block_addr, offset = self._locate(slot)
        raw = self._read(block_addr)
        self.lookups += 1
        return raw[offset : offset + self.mac_bytes]

    def verify_page_image(self, slot: int, image_mac: bytes) -> None:
        """Compare a recomputed swapped-page MAC against the directory."""
        stored = self.lookup(slot)
        if stored != image_mac:
            raise IntegrityError(
                f"swap page in slot {slot} failed page-root verification",
                kind="swap",
            )
