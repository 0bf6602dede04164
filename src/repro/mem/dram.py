"""Main memory models.

Two views of DRAM exist in this library:

* :class:`DramTiming` — the latency model used by the trace-driven timing
  simulator (fixed 200-cycle access latency, paper section 6).
* :class:`BlockMemory` — a functional byte store, block-granular and
  sparse, used by the functional secure-memory system. It is deliberately
  *attackable*: ``raw_read``/``raw_write`` bypass the processor and model
  a physical adversary or a DMA device touching DRAM directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layout import BLOCK_SIZE, block_address


@dataclass
class DramTiming:
    """Fixed-latency DRAM: the timing simulator's view of main memory."""

    # Paper section 6's 200-cycle DRAM; the timing simulator overrides this
    # with MachineConfig.memory_latency — the default is for standalone use.
    access_latency: int = 200  # repro: allow(SIM001)
    reads: int = 0
    writes: int = 0

    def read(self) -> int:
        self.reads += 1
        return self.access_latency

    def write(self) -> int:
        self.writes += 1
        return self.access_latency


class BlockMemory:
    """A sparse, block-granular byte store (functional main memory or disk).

    Unwritten blocks read as zeros. All accesses must be block-aligned and
    block-sized — the memory controller above it deals in whole cache
    lines, exactly like a real DRAM channel.
    """

    def __init__(self, size_bytes: int, name: str = "dram"):
        if size_bytes % BLOCK_SIZE:
            raise ValueError("memory size must be a whole number of blocks")
        self.size_bytes = size_bytes
        self.name = name
        self._blocks: dict[int, bytes] = {}
        self._intercepts: dict[int, bytes] = {}
        self.access_log: list | None = None  # set to [] to record (op, addr)

    def _check(self, address: int) -> int:
        if address % BLOCK_SIZE:
            raise ValueError(f"unaligned block address {address:#x}")
        if not 0 <= address < self.size_bytes:
            raise IndexError(f"address {address:#x} outside {self.name} of {self.size_bytes:#x} bytes")
        return address

    def read_block(self, address: int) -> bytes:
        if address % BLOCK_SIZE or not 0 <= address < self.size_bytes:
            self._check(address)  # raises the precise error
        if self.access_log is not None:
            self.access_log.append(("r", address))
        intercepted = self._intercepts.pop(address, None)
        if intercepted is not None:
            return intercepted  # bus MITM: stored content untouched
        return self._blocks.get(address, bytes(BLOCK_SIZE))

    def write_block(self, address: int, data: bytes) -> None:
        if address % BLOCK_SIZE or not 0 <= address < self.size_bytes:
            self._check(address)  # raises the precise error
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"block write must be {BLOCK_SIZE} bytes, got {len(data)}")
        if self.access_log is not None:
            self.access_log.append(("w", address))
        self._blocks[address] = bytes(data)

    # -- whole-memory images (hibernation) ----------------------------------

    def snapshot_blocks(self) -> dict[int, bytes]:
        """Copy of the populated blocks — the DRAM image a hibernating
        machine writes to disk (attacker-accessible while it sleeps)."""
        return dict(self._blocks)

    def restore_blocks(self, image: dict[int, bytes]) -> None:
        """Replace all content with a previously captured image."""
        self._blocks = dict(image)

    # -- adversary / DMA interface -----------------------------------------
    # These do NOT go through the secure processor (and are not recorded
    # in the access log — they are not bus transactions of the chip).

    def raw_read(self, address: int) -> bytes:
        self._check(address)
        return self._blocks.get(address, bytes(BLOCK_SIZE))

    def raw_write(self, address: int, data: bytes) -> None:
        self._check(address)
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"block write must be {BLOCK_SIZE} bytes, got {len(data)}")
        self._blocks[address] = bytes(data)

    def intercept_next_read(self, address: int, payload: bytes | None = None) -> None:
        """Bus man-in-the-middle: the *next* processor read of this block
        returns ``payload`` (default: bit-flipped content) while the
        stored copy stays intact — a transient injection on the wires,
        as opposed to rewriting DRAM."""
        aligned = block_address(address)
        current = self.raw_read(aligned)
        if payload is None:
            payload = bytes(b ^ 0xFF for b in current)
        if len(payload) != BLOCK_SIZE:
            raise ValueError(f"payload must be {BLOCK_SIZE} bytes")
        self._intercepts[aligned] = bytes(payload)

    def corrupt(self, address: int, new_bytes: bytes | None = None) -> bytes:
        """Adversarially replace the block at ``address``.

        If ``new_bytes`` is omitted the block is XOR-flipped so it is
        guaranteed to differ. Returns the previous content.
        """
        aligned = block_address(address)
        old = self.read_block(aligned)
        if new_bytes is None:
            new_bytes = bytes(b ^ 0xFF for b in old)
        self.write_block(aligned, new_bytes)
        return old

    def populated_blocks(self) -> int:
        return len(self._blocks)
