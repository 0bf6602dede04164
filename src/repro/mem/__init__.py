"""Memory-hierarchy substrate: geometry, caches, bus, and DRAM models.

The bus and cache models serve the timing simulator only; a functional
machine, which imports :mod:`repro.mem.layout`, never loads them. They
are imported on first use.
"""

from .._lazy import lazy_exports
from .dram import BlockMemory, DramTiming
from .layout import (
    BLOCK_SIZE,
    BLOCKS_PER_PAGE,
    CHUNK_SIZE,
    CHUNKS_PER_BLOCK,
    PAGE_SIZE,
    Geometry,
    block_address,
    block_in_page,
    block_index,
    block_offset,
    chunk_id,
    page_address,
    page_index,
    page_offset,
)

__getattr__ = lazy_exports(__name__, {
    **dict.fromkeys(("DEFAULT_CYCLES_PER_BLOCK", "BusStats", "MemoryBus"),
                    ".bus"),
    **dict.fromkeys(("CODE", "COUNTER", "DATA", "LINE_CLASSES", "MAC",
                     "MERKLE", "CacheStats", "Eviction",
                     "SetAssociativeCache"), ".cache"),
})

__all__ = [
    "MemoryBus",
    "BusStats",
    "DEFAULT_CYCLES_PER_BLOCK",
    "SetAssociativeCache",
    "CacheStats",
    "Eviction",
    "DATA",
    "CODE",
    "COUNTER",
    "MERKLE",
    "MAC",
    "LINE_CLASSES",
    "BlockMemory",
    "DramTiming",
    "Geometry",
    "BLOCK_SIZE",
    "PAGE_SIZE",
    "BLOCKS_PER_PAGE",
    "CHUNK_SIZE",
    "CHUNKS_PER_BLOCK",
    "block_address",
    "block_index",
    "block_offset",
    "block_in_page",
    "chunk_id",
    "page_address",
    "page_index",
    "page_offset",
]
