"""The Merkle tree against an oracle that recomputes it by definition.

:func:`oracle` rebuilds every node block and the root MAC straight from
the covered leaves in memory, using nothing but the MAC-chain rules (a
child's MAC binds its level and index; the root binds the top node) —
no tree engine code. The engine must agree with it:

* the eager write-through tree after *every* operation, node for node
  and root for root;
* every materialization/write-back policy once ``drain(full=True)`` has
  settled the tree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import Blake2Mac
from repro.integrity.geometry import TreeGeometry
from repro.integrity.merkle import MerkleTree
from repro.mem.dram import BlockMemory

BLOCK = 64
COVERED_BLOCKS = 64
MAC_BYTES = 16
KEY = b"oracle-tree-key"


def oracle(memory, geometry, mac):
    """Every node block and the root MAC, recomputed from leaf memory."""
    arity = geometry.arity
    children = [memory.raw_read(geometry.covered_start + i * BLOCK)
                for i in range(geometry.covered_bytes // BLOCK)]
    nodes = {}
    for level in range(1, geometry.levels + 1):
        row = []
        for index in range(geometry.level_counts[level - 1]):
            slots = b"".join(
                mac.compute(children[c] + (level - 1).to_bytes(2, "big") + c.to_bytes(8, "big"))
                for c in range(index * arity, min((index + 1) * arity, len(children)))
            )
            row.append(slots + bytes(BLOCK - len(slots)))
            nodes[(level, index)] = row[-1]
        children = row
    return nodes, mac.compute(children[0] + b"\xff\xfftree-root")


def node_region(tree, memory):
    """Every node block's memory content, keyed like :func:`oracle`."""
    g = tree.geometry
    return {
        (level, index): memory.raw_read(g.level_bases[level - 1] + index * BLOCK)
        for level in range(1, g.levels + 1)
        for index in range(g.level_counts[level - 1])
    }


# Every (lazy, coalesce) policy pair.
POLICIES = [(False, False), (False, True), (True, False), (True, True)]


def make_tree(memory, geometry, lazy, coalesce, capacity=None):
    return MerkleTree(memory, geometry, Blake2Mac(KEY, MAC_BYTES * 8),
                      trusted_capacity=capacity, lazy=lazy, coalesce=coalesce)


def setup(lazy=False, coalesce=False, capacity=None):
    covered = COVERED_BLOCKS * BLOCK
    geometry = TreeGeometry(0, covered, covered, MAC_BYTES)
    memory = BlockMemory(geometry.nodes_end + 4096)
    tree = make_tree(memory, geometry, lazy, coalesce, capacity)
    tree.build()
    return tree, memory


def hibernate_and_resume(tree, memory, lazy, coalesce, capacity):
    """What the machine does across a power cycle: flush, persist the
    root and the tree state, rebuild the engine, restore both."""
    tree.flush_pending()
    state, root = tree.persist_state(), tree.root.value
    resumed = make_tree(memory, tree.geometry, lazy, coalesce, capacity)
    resumed.restore_root(root)
    resumed.restore_state(state)
    return resumed


def apply(tree, memory, op, lazy, coalesce, capacity):
    """Run one generated op; returns the (possibly resumed) tree."""
    kind, block, byte, budget = op
    addr = block * BLOCK
    if kind == "write":
        data = bytes([byte]) * BLOCK
        memory.write_block(addr, data)
        tree.update(addr, data)
    elif kind == "verify":
        tree.verify(addr)
    elif kind == "drain":
        tree.drain(budget=budget)
    elif kind == "flush":
        tree.flush_pending(addr, BLOCK)
    elif kind == "clear":
        tree.clear_volatile()
    else:
        tree = hibernate_and_resume(tree, memory, lazy, coalesce, capacity)
    return tree


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "verify", "drain", "flush", "clear", "resume"]),
        st.integers(min_value=0, max_value=COVERED_BLOCKS - 1),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=40,
)
_CAPACITY = st.sampled_from([None, 1, 3])


@settings(max_examples=40, deadline=None)
@given(_OPS, _CAPACITY)
def test_eager_write_through_matches_the_oracle_after_every_op(ops, capacity):
    tree, memory = setup(capacity=capacity)
    for op in ops:
        tree = apply(tree, memory, op, False, False, capacity)
        nodes, root = oracle(memory, tree.geometry, tree.mac)
        assert node_region(tree, memory) == nodes
        assert tree.root.value == root
        assert tree.pending_updates() == 0


@pytest.mark.parametrize("lazy, coalesce", POLICIES)
@settings(max_examples=25, deadline=None)
@given(ops=_OPS, capacity=_CAPACITY)
def test_every_policy_matches_the_oracle_after_a_full_drain(lazy, coalesce, ops, capacity):
    tree, memory = setup(lazy, coalesce, capacity)
    for op in ops:
        tree = apply(tree, memory, op, lazy, coalesce, capacity)
    tree.drain(full=True)
    nodes, root = oracle(memory, tree.geometry, tree.mac)
    assert tree.pending_updates() == 0
    assert node_region(tree, memory) == nodes
    assert tree.root.value == root
    assert tree.materialized_fraction() == 1.0
