"""Memory integrity verification schemes.

* :class:`MacOnlyIntegrity` — per-block MACs (spoofing/splicing only).
* :class:`StandardMerkleIntegrity` — one Merkle tree over data+counters.
* :class:`BonsaiMerkleIntegrity` — the paper's BMT: tree over counters,
  counter-bound per-block MACs for data.
* :class:`LogHashIntegrity` — deferred log-hash baseline.
* :class:`PageRootDirectory` — swap-extension of Merkle protection.

One functional tree engine, :class:`MerkleTree`, serves every tree
scheme. Two independent policies shape it: ``lazy`` (build every node at
boot, or adopt subtrees on first touch) and ``coalesce`` (write through
to the root, or queue dirty nodes on-chip and drain them in batches).
"""

from .bonsai import BonsaiMerkleIntegrity, StandardMerkleIntegrity
from .geometry import NodeRef, TreeGeometry
from .loghash import LogHashIntegrity
from .macs import MacOnlyIntegrity, MacStore
from .merkle import MerkleTree, RootRegister
from .pageroot import PageRootDirectory

__all__ = [
    "TreeGeometry",
    "NodeRef",
    "MerkleTree",
    "RootRegister",
    "MacStore",
    "MacOnlyIntegrity",
    "StandardMerkleIntegrity",
    "BonsaiMerkleIntegrity",
    "LogHashIntegrity",
    "PageRootDirectory",
]
