"""Descriptors for every integrity organization the paper compares.

String keys are the ``INT_*`` constants in :mod:`repro.core.config`.
Each descriptor plans its tree geometry and MAC region inside the
machine's physical layout and builds the functional engine; its class
attributes drive the timing model's metadata traffic (tree walks vs.
per-block MAC fetches, and the section-5.2 caching policy split).
"""

from __future__ import annotations

from ..core.config import INT_BMT, INT_LOGHASH, INT_MAC, INT_MT, INT_NONE
from ..integrity.geometry import TreeGeometry
from .base import IntegrityScheme


class NoIntegrityScheme(IntegrityScheme):
    """No integrity protection (encryption-only or unprotected machines)."""

    key = INT_NONE
    verifies = False

    def build_engine(self, machine, geometry):
        from ..integrity.null import NullIntegrity

        return NullIntegrity()


class MacOnlyScheme(IntegrityScheme):
    """Per-block MACs without a tree: spoofing is caught, replay is not."""

    key = INT_MAC
    uses_data_macs = True

    def mac_region_bytes(self, config, data_bytes):
        from ..mem.layout import BLOCK_SIZE, round_to_blocks

        return round_to_blocks(data_bytes // BLOCK_SIZE * config.mac_bytes)

    def build_engine(self, machine, geometry):
        from ..integrity.macs import MacOnlyIntegrity, MacStore

        store = MacStore(
            machine.memory,
            machine.layout.mac_base,
            0,
            machine.layout.data_bytes,
            machine.config.mac_bytes,
        )
        return MacOnlyIntegrity(machine.memory, store, machine.mac_fn)


class StandardMerkleScheme(IntegrityScheme):
    """The conventional organization: one tree over data + counters + PRD.

    Leaf data MACs are tree nodes, cached in L2 like any other node —
    the pollution Figure 9 quantifies."""

    key = INT_MT
    uses_tree = True
    tree_covers_data = True
    caches_data_macs_default = True

    def plan_tree(self, config, data_bytes, counter_base, counter_bytes, prd_bytes, tree_base):
        covered = data_bytes + counter_bytes + prd_bytes
        return TreeGeometry(0, covered, tree_base, config.mac_bytes)

    def build_engine(self, machine, geometry):
        from ..integrity.bonsai import StandardMerkleIntegrity

        return StandardMerkleIntegrity(machine.memory, self.build_tree(machine, geometry))


class BonsaiMerkleScheme(IntegrityScheme):
    """The paper's proposal (section 5.2): counter-bound per-block MACs
    plus a small tree over counters + page-root directory only. Data MACs
    are fetched but never cached."""

    key = INT_BMT
    uses_tree = True
    uses_data_macs = True
    requires_counters = True

    def plan_tree(self, config, data_bytes, counter_base, counter_bytes, prd_bytes, tree_base):
        # MachineConfig rejects counter-free encryption (requires_counters).
        covered = counter_bytes + prd_bytes
        return TreeGeometry(counter_base, covered, tree_base, config.mac_bytes)

    def mac_region_bytes(self, config, data_bytes):
        from ..mem.layout import BLOCK_SIZE, round_to_blocks

        return round_to_blocks(data_bytes // BLOCK_SIZE * config.mac_bytes)

    def build_engine(self, machine, geometry):
        from ..integrity.bonsai import BonsaiMerkleIntegrity
        from ..integrity.macs import MacStore

        tree = self.build_tree(machine, geometry)
        store = MacStore(
            machine.memory,
            machine.layout.mac_base,
            0,
            machine.layout.data_bytes,
            machine.config.mac_bytes,
        )
        return BonsaiMerkleIntegrity(machine.memory, store, tree, machine.mac_fn)


class LogHashScheme(IntegrityScheme):
    """Log-hash integrity [Suh et al. MICRO'03]: incremental multiset
    hashes checked at epoch boundaries; no tree, no per-block MACs."""

    key = INT_LOGHASH

    def build_engine(self, machine, geometry):
        from ..integrity.loghash import LogHashIntegrity

        return LogHashIntegrity(machine.memory, machine.mac_fn)


BUILTIN_INTEGRITY_SCHEMES = (
    NoIntegrityScheme(),
    MacOnlyScheme(),
    StandardMerkleScheme(),
    BonsaiMerkleScheme(),
    LogHashScheme(),
)
