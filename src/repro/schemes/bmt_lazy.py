"""The ``bmt_lazy`` descriptor: the paper's BMT under the lazy tree policies.

The worked "change the tree policy in one file" example from
``docs/architecture.md``: everything that differs from the eager
:class:`~repro.schemes.integrity.BonsaiMerkleScheme` — the tree's
materialization and write-back policies, the deferred update policy the
timing model follows, and the write-back gauges — lives here. The
machine, simulator, kernel, and swap path are untouched; they only see
the descriptor hooks.
"""

from __future__ import annotations

from ..core.config import INT_BMT_LAZY
from .base import UpdatePolicy
from .integrity import BonsaiMerkleScheme


class LazyBonsaiMerkleScheme(BonsaiMerkleScheme):
    """BMT over counters + PRD, on a lazy, coalescing tree.

    Same geometry, same MAC regions, same Table 2 storage as ``bonsai``
    — but the tree materializes subtrees on first touch and queues dirty
    paths, and the timing model defers counter-writeback walks per
    :attr:`update_policy`, coalescing overlapping paths per batch.
    """

    key = INT_BMT_LAZY
    update_policy = UpdatePolicy(deferred=True, batch=8, coalesce=True)

    def build_tree(self, machine, geometry):
        from ..integrity.merkle import MerkleTree

        return MerkleTree(
            machine.memory, geometry, machine.mac_fn,
            lazy=True, coalesce=self.update_policy.coalesce,
        )

    def engine_stats(self, engine):
        tree = engine.tree
        return {
            "tree_pending_updates": tree.pending_updates,
            "tree_materialized_fraction": tree.materialized_fraction,
            "tree_coalesce_ratio": tree.coalesce_ratio,
            "tree_drained_nodes": lambda: tree.drained_nodes,
            "tree_adoptions": lambda: tree.adoptions,
        }


BUILTIN_LAZY_SCHEMES = (LazyBonsaiMerkleScheme(),)
