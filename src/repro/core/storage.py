"""Analytic model of in-memory storage overheads (paper Table 2).

Every protected byte of data drags metadata into memory: counters, Merkle
tree nodes, per-block MACs, and the page-root directory for swapped-out
pages. This module computes those sizes exactly; Table 2 of the paper is
reproduced to two decimal places by ``repro.evalx.tables.table2``.

Model (validated against all 16 cells of the paper's Table 2 before
implementation — see DESIGN.md section 5):

* Percentages are fractions of *total* memory (data + all metadata).
* A 64-byte tree node holds ``arity = 64 / mac_bytes`` child MACs, so a
  tree covering ``C`` bytes occupies ``C / (arity - 1)`` bytes total.
* The **standard Merkle tree** covers data *and* its counter storage.
* The **Bonsai Merkle tree** covers only the counter storage, while each
  data block additionally carries an (untreed) MAC: ``mac_bytes/64`` per
  data byte.
* The **page root directory** holds one MAC per swap page, with swap
  sized equal to physical memory by default.
* Counter storage is the encryption scheme descriptor's counter region
  (:mod:`repro.schemes`), the one the machine's layout reserves: AISE =
  64B per 4KB page (1/64); a flat scheme stores its ``stamp_bytes`` per
  64B block.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem.layout import BLOCK_SIZE, PAGE_SIZE
from ..schemes import encryption_scheme
from .config import (
    INT_BMT,
    INT_BMT_LAZY,
    INT_MAC,
    INT_MT,
    INT_NONE,
    MachineConfig,
)
from .errors import ConfigurationError


@dataclass(frozen=True)
class StorageBreakdown:
    """Absolute metadata sizes for a protected memory of ``data_bytes``."""

    data_bytes: float
    counter_bytes: float
    merkle_bytes: float  # tree nodes + (for BMT) per-block data MACs
    page_root_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.data_bytes + self.counter_bytes + self.merkle_bytes + self.page_root_bytes

    # Fractions of total memory — the quantities Table 2 reports.
    @property
    def merkle_fraction(self) -> float:
        return self.merkle_bytes / self.total_bytes

    @property
    def page_root_fraction(self) -> float:
        return self.page_root_bytes / self.total_bytes

    @property
    def counter_fraction(self) -> float:
        return self.counter_bytes / self.total_bytes

    @property
    def overhead_fraction(self) -> float:
        """Total metadata as a fraction of total memory (Table 2's 'Total')."""
        return (self.total_bytes - self.data_bytes) / self.total_bytes

    @property
    def data_fraction(self) -> float:
        return self.data_bytes / self.total_bytes


def counter_bytes_per_data_byte(encryption: str) -> float:
    """In-memory counter storage per byte of protected data: the scheme
    descriptor's counter region for one page, the layout the machine
    reserves."""
    return encryption_scheme(encryption).counter_region_bytes(PAGE_SIZE) / PAGE_SIZE


def tree_bytes(covered_bytes: float, mac_bytes: int) -> float:
    """Total size of a Merkle tree (all levels) covering ``covered_bytes``."""
    arity = BLOCK_SIZE // mac_bytes
    if arity < 2:
        raise ConfigurationError(
            f"{mac_bytes * 8}-bit MACs leave no fan-out in a {BLOCK_SIZE}B node"
        )
    return covered_bytes / (arity - 1)


def storage_breakdown(
    encryption: str,
    integrity: str,
    mac_bits: int,
    data_bytes: int = 1 << 30,
    swap_bytes: int | None = None,
) -> StorageBreakdown:
    """Compute the Table 2 storage breakdown for one configuration."""
    if swap_bytes is None:
        swap_bytes = data_bytes
    mac_bytes = mac_bits // 8
    counters = counter_bytes_per_data_byte(encryption) * data_bytes

    if integrity == INT_NONE:
        merkle = 0.0
        page_roots = 0.0
    elif integrity == INT_MAC:
        merkle = data_bytes * mac_bytes / BLOCK_SIZE
        page_roots = 0.0
    elif integrity == INT_MT:
        merkle = tree_bytes(data_bytes + counters, mac_bytes)
        page_roots = swap_bytes / PAGE_SIZE * mac_bytes
    elif integrity in (INT_BMT, INT_BMT_LAZY):
        # The lazy engine reserves the same node region; it just fills
        # it on demand, so the Table 2 breakdown is identical.
        per_block_macs = data_bytes * mac_bytes / BLOCK_SIZE
        merkle = per_block_macs + tree_bytes(counters, mac_bytes)
        page_roots = swap_bytes / PAGE_SIZE * mac_bytes
    else:
        raise ConfigurationError(f"no storage model for integrity scheme {integrity!r}")

    return StorageBreakdown(
        data_bytes=float(data_bytes),
        counter_bytes=counters,
        merkle_bytes=merkle,
        page_root_bytes=page_roots,
    )


@dataclass(frozen=True)
class SwapProtectionCosts:
    """Cost comparison of the two ways to extend integrity to the disk."""

    scheme: str
    on_chip_root_bytes: int  # secure registers the chip must provide
    memory_overhead_bytes: float  # extra off-chip storage
    trees_to_manage: int


def compare_swap_protection(
    processes: int,
    avg_process_bytes: int,
    mac_bits: int = 128,
    physical_bytes: int = 1 << 30,
    swap_bytes: int | None = None,
) -> dict[str, SwapProtectionCosts]:
    """Single tree + page-root directory vs. one Merkle tree per process.

    Section 5.1 mentions the alternative from [Suh et al. ICS'03]: build
    each process's tree over its *virtual* space so it covers the disk
    too — at the price of one secure on-chip root per live process and
    the management of many trees. This quantifies that trade for the
    paper's design point.
    """
    if swap_bytes is None:
        swap_bytes = physical_bytes
    mac_bytes = mac_bits // 8

    # The paper's design: one tree over physical memory, page roots for
    # swapped pages stored in (tree-covered) physical memory.
    directory = swap_bytes / PAGE_SIZE * mac_bytes
    single = SwapProtectionCosts(
        scheme="single-tree + page-root directory",
        on_chip_root_bytes=mac_bytes,
        memory_overhead_bytes=directory,
        trees_to_manage=1,
    )

    # Per-process virtual-space trees: each process's tree covers its own
    # footprint wherever it lives; every live process needs a secure root.
    per_process_nodes = processes * tree_bytes(avg_process_bytes, mac_bytes)
    per_process = SwapProtectionCosts(
        scheme="per-process virtual-space trees",
        on_chip_root_bytes=processes * mac_bytes,
        memory_overhead_bytes=per_process_nodes,
        trees_to_manage=processes,
    )
    return {"single": single, "per_process": per_process}


def breakdown_for_config(config: MachineConfig) -> StorageBreakdown:
    """Storage breakdown for a machine configuration (Table 2 row)."""
    return storage_breakdown(
        config.encryption,
        config.integrity,
        config.mac_bits,
        data_bytes=config.physical_bytes,
        swap_bytes=config.swap_bytes,
    )
