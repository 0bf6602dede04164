"""Address and block geometry shared by the functional and timing systems.

The paper's machine uses 64-byte cache/memory blocks and 4-Kbyte pages, so
a page holds 64 blocks and a 64-byte *counter block* (one 64-bit LPID +
64 x 7-bit minor counters) describes exactly one page (section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

BLOCK_SIZE = 64  # bytes per cache/memory block
PAGE_SIZE = 4096  # bytes per virtual-memory page
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE  # 64
CHUNK_SIZE = 16  # bytes per encryption chunk (AES block)
CHUNKS_PER_BLOCK = BLOCK_SIZE // CHUNK_SIZE  # 4


def round_to_blocks(size: int) -> int:
    """Round a byte size up to a whole number of blocks."""
    return (size + BLOCK_SIZE - 1) // BLOCK_SIZE * BLOCK_SIZE


def block_index(address: int) -> int:
    """Index of the 64-byte block containing ``address``."""
    return address // BLOCK_SIZE


def block_address(address: int) -> int:
    """Address of the first byte of the block containing ``address``."""
    return address & ~(BLOCK_SIZE - 1)


def block_offset(address: int) -> int:
    return address & (BLOCK_SIZE - 1)


def page_index(address: int) -> int:
    """Index of the 4KB page containing ``address``."""
    return address // PAGE_SIZE


def page_address(address: int) -> int:
    return address & ~(PAGE_SIZE - 1)


def page_offset(address: int) -> int:
    return address & (PAGE_SIZE - 1)


def block_in_page(address: int) -> int:
    """Index (0..63) of the block within its page."""
    return (address & (PAGE_SIZE - 1)) // BLOCK_SIZE


def chunk_id(address: int) -> int:
    """Index (0..3) of the 16-byte chunk within its block."""
    return block_offset(address) // CHUNK_SIZE


@dataclass(frozen=True)
class Geometry:
    """Sizes of the protected memories.

    ``swap_bytes`` defaults to the physical size, matching the Table 2
    storage model (see DESIGN.md section 5).
    """

    physical_bytes: int = 1 << 30  # 1 GB main memory (paper section 6)
    swap_bytes: int | None = None

    def __post_init__(self):
        if self.physical_bytes % PAGE_SIZE:
            raise ValueError("physical memory must be a whole number of pages")
        if self.swap_bytes is None:
            object.__setattr__(self, "swap_bytes", self.physical_bytes)
        if self.swap_bytes % PAGE_SIZE:
            raise ValueError("swap memory must be a whole number of pages")

    @property
    def physical_pages(self) -> int:
        return self.physical_bytes // PAGE_SIZE

    @property
    def physical_blocks(self) -> int:
        return self.physical_bytes // BLOCK_SIZE

    @property
    def swap_pages(self) -> int:
        return self.swap_bytes // PAGE_SIZE
