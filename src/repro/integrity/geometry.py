"""Merkle tree geometry, shared by the functional trees and the timing model.

A tree covers a contiguous byte range of physical memory. Level 0 is the
covered range itself, in 64-byte blocks. Each higher level is an array of
64-byte *node blocks*, each holding ``arity = 64 / mac_bytes`` MACs of the
level below. Levels shrink by ``arity`` until a single node block remains;
the MAC of that top block lives in the on-chip root register.

The geometry answers, for any covered address: which node block (and MAC
slot within it) holds its MAC at each level — which is all the timing
simulator needs to model Merkle-walk traffic, and all the functional tree
needs to locate stored MACs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem.layout import BLOCK_SIZE


@dataclass(frozen=True)
class NodeRef:
    """One Merkle node lookup step: the node block's address and MAC slot."""

    level: int  # 1 = first MAC level above the covered range
    address: int  # physical address of the 64B node block holding the MAC
    slot: int  # MAC index within the node block
    index: int  # node-block index within its level


class TreeGeometry:
    """Shapes a Merkle tree over ``[covered_start, covered_start+covered_bytes)``.

    Node blocks are laid out level by level starting at ``nodes_start``
    (level 1 first). ``mac_bytes`` fixes the arity.
    """

    def __init__(self, covered_start: int, covered_bytes: int, nodes_start: int, mac_bytes: int):
        if covered_bytes <= 0 or covered_bytes % BLOCK_SIZE:
            raise ValueError("covered range must be a positive whole number of blocks")
        arity = BLOCK_SIZE // mac_bytes
        if arity < 2:
            raise ValueError(f"MAC of {mac_bytes}B leaves no fan-out in a {BLOCK_SIZE}B node")
        self.covered_start = covered_start
        self.covered_bytes = covered_bytes
        self.nodes_start = nodes_start
        self.mac_bytes = mac_bytes
        self.arity = arity

        # level_counts[k] = number of 64B node blocks at level k+1.
        counts = []
        children = covered_bytes // BLOCK_SIZE
        while children > 1:
            nodes = (children + arity - 1) // arity
            counts.append(nodes)
            children = nodes
        if not counts:
            counts = [1]  # degenerate: a single covered block still gets one node
        self.level_counts = counts
        self.levels = len(counts)

        bases = []
        base = nodes_start
        for count in counts:
            bases.append(base)
            base += count * BLOCK_SIZE
        self.level_bases = bases
        self.nodes_end = base

    @property
    def node_bytes(self) -> int:
        """Total bytes of node storage (all levels)."""
        return sum(self.level_counts) * BLOCK_SIZE

    @property
    def root_block_address(self) -> int:
        """Address of the single top-level node block (the root register
        holds the MAC *of* this block)."""
        return self.level_bases[-1]

    def covers(self, address: int) -> bool:
        return self.covered_start <= address < self.covered_start + self.covered_bytes

    def child_index(self, address: int) -> int:
        """Level-0 block index of a covered address."""
        if not self.covers(address):
            raise ValueError(f"address {address:#x} not in covered range")
        return (address - self.covered_start) // BLOCK_SIZE

    def node_ref(self, level: int, child_index: int) -> NodeRef:
        """The node (at ``level`` >= 1) holding the MAC of child ``child_index``
        from the level below."""
        node_index = child_index // self.arity
        slot = child_index % self.arity
        address = self.level_bases[level - 1] + node_index * BLOCK_SIZE
        return NodeRef(level=level, address=address, slot=slot, index=node_index)

    def walk(self, address: int) -> list[NodeRef]:
        """All node lookups needed to verify a covered address, leaf to top."""
        refs = []
        index = self.child_index(address)
        for level in range(1, self.levels + 1):
            ref = self.node_ref(level, index)
            refs.append(ref)
            index = ref.index
        return refs

    def node_child_range(self, level: int, node_index: int) -> tuple[int, int]:
        """(first_child_index, count) of the children covered by a node block."""
        first = node_index * self.arity
        if level == 1:
            total_children = self.covered_bytes // BLOCK_SIZE
        else:
            total_children = self.level_counts[level - 2]
        count = min(self.arity, total_children - first)
        return first, count

    def child_block_address(self, level: int, child_index: int) -> int:
        """Address of a child block: covered memory for level 1, node blocks above."""
        if level == 1:
            return self.covered_start + child_index * BLOCK_SIZE
        return self.level_bases[level - 2] + child_index * BLOCK_SIZE
