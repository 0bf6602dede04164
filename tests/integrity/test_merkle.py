"""Functional Merkle tree: build, verify, update, tamper detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IntegrityError
from repro.crypto.mac import Blake2Mac
from repro.integrity.geometry import TreeGeometry
from repro.integrity.merkle import MerkleTree
from repro.mem.dram import BlockMemory


def make_tree(covered_blocks: int = 64, mac_bytes: int = 16, capacity=None):
    covered = covered_blocks * 64
    geometry = TreeGeometry(0, covered, covered, mac_bytes)
    memory = BlockMemory(geometry.nodes_end + 4096)
    tree = MerkleTree(memory, geometry, Blake2Mac(b"tree-key", mac_bytes * 8), trusted_capacity=capacity)
    tree.build()
    return tree, memory


def write_covered(tree, memory, address, data):
    memory.write_block(address, data)
    tree.update(address, data)


class TestBuildVerify:
    def test_fresh_tree_verifies_everything(self):
        tree, memory = make_tree()
        for block in range(64):
            tree.verify(block * 64)

    def test_root_register_set(self):
        tree, _ = make_tree()
        assert tree.root.value is not None

    def test_verify_before_build_fails(self):
        geometry = TreeGeometry(0, 4096, 4096, 16)
        memory = BlockMemory(geometry.nodes_end + 4096)
        tree = MerkleTree(memory, geometry, Blake2Mac(b"k", 128))
        with pytest.raises(IntegrityError):
            tree.verify(0)

    def test_update_then_verify(self):
        tree, memory = make_tree()
        write_covered(tree, memory, 128, b"\x11" * 64)
        tree.verify(128)
        tree.verify(192)  # sibling still fine

    def test_verify_with_supplied_data(self):
        tree, memory = make_tree()
        write_covered(tree, memory, 0, b"\x22" * 64)
        tree.verify(0, b"\x22" * 64)
        with pytest.raises(IntegrityError):
            tree.verify(0, b"\x23" * 64)


class TestTamperDetection:
    def test_data_tamper_detected(self):
        tree, memory = make_tree()
        memory.corrupt(256)
        with pytest.raises(IntegrityError) as err:
            tree.verify(256)
        assert err.value.kind == "leaf"

    def test_leaf_node_tamper_detected(self):
        tree, memory = make_tree()
        leaf_node = tree.geometry.level_bases[0]
        memory.corrupt(leaf_node)
        with pytest.raises(IntegrityError) as err:
            tree.verify(0)
        assert err.value.kind in ("node", "leaf")

    def test_every_level_tamper_detected(self):
        for level in range(3):
            tree, memory = make_tree()
            memory.corrupt(tree.geometry.level_bases[level])
            with pytest.raises(IntegrityError):
                tree.verify(0)

    def test_top_node_tamper_detected_via_root_register(self):
        tree, memory = make_tree()
        memory.corrupt(tree.geometry.root_block_address)
        with pytest.raises(IntegrityError) as err:
            tree.verify(0)
        assert err.value.kind == "root"

    def test_splice_within_tree_detected(self):
        """Swapping two valid covered blocks must fail (position binding)."""
        tree, memory = make_tree()
        write_covered(tree, memory, 0, b"\x0a" * 64)
        write_covered(tree, memory, 64, b"\x0b" * 64)
        a, b = memory.read_block(0), memory.read_block(64)
        memory.raw_write(0, b)
        memory.raw_write(64, a)
        with pytest.raises(IntegrityError):
            tree.verify(0)

    def test_replay_of_block_and_nodes_detected(self):
        """Roll back a block AND its whole MAC chain: the on-chip root
        still exposes the replay (the paper's core security argument)."""
        tree, memory = make_tree()
        write_covered(tree, memory, 0, b"OLD!" * 16)
        stale = {0: memory.read_block(0)}
        for base in tree.geometry.level_bases:
            stale[base] = memory.read_block(base)
        write_covered(tree, memory, 0, b"NEW!" * 16)
        tree._trusted.clear()  # force re-verification through memory
        for address, raw in stale.items():
            memory.raw_write(address, raw)
        with pytest.raises(IntegrityError) as err:
            tree.verify(0)
        assert err.value.kind == "root"


class TestTrustedCache:
    def test_caching_short_circuits_fetches(self):
        tree, _ = make_tree()
        tree.verify(0)
        fetches_before = tree.node_fetches
        tree.verify(64)  # sibling: leaf node already trusted
        assert tree.node_fetches == fetches_before

    def test_capacity_eviction_is_safe(self):
        tree, memory = make_tree(capacity=2)
        for block in range(32):
            write_covered(tree, memory, block * 64, bytes([block]) * 64)
        assert tree.trusted_nodes() <= 2
        for block in range(32):
            tree.verify(block * 64)

    def test_update_leaves_its_path_most_recently_used(self):
        """An update refreshes every node on its path, hit or miss, in
        bottom-up order: the shared upper nodes of a second leaf's path
        move behind its fresh lower nodes, so a bounded cache evicts the
        first path's private nodes first."""
        tree, memory = make_tree(capacity=8)
        paths = []
        for address in (0, 63 * 64):  # different level-1 and level-2 nodes
            write_covered(tree, memory, address, b"\x33" * 64)
            paths.append([ref.address for ref in tree.geometry.walk(address)])
            assert list(tree._trusted)[-len(paths[-1]):] == paths[-1]
        hits = tree.trusted_hits
        write_covered(tree, memory, 0, b"\x34" * 64)  # every level a hit
        assert tree.trusted_hits == hits + len(paths[0])
        assert list(tree._trusted)[-len(paths[0]):] == paths[0]

    def test_tamper_detected_even_after_node_was_trusted(self):
        """A trusted on-chip copy must not mask later memory tampering:
        verification uses the on-chip copy, so the attacker's change to
        DRAM is simply never believed."""
        tree, memory = make_tree()
        write_covered(tree, memory, 0, b"\x77" * 64)
        tree.verify(0)  # leaf node now trusted on-chip
        leaf_node = tree.geometry.level_bases[0]
        memory.corrupt(leaf_node)  # attacker hits DRAM copy
        tree.verify(0)  # still fine: chip uses its own copy
        tree._trusted.clear()  # ... until the copy is evicted
        with pytest.raises(IntegrityError):
            tree.verify(0)

    def test_invalidate_covered_range(self):
        tree, memory = make_tree(covered_blocks=128)
        for block in range(64):
            tree.verify(block * 64)
        assert tree.trusted_nodes() > 0
        dropped = tree.invalidate_covered_range(0, 4096)
        assert dropped > 0
        # Everything still verifies (re-fetched from intact memory).
        for block in range(64):
            tree.verify(block * 64)


class TestUpdatePropagation:
    def test_update_changes_root(self):
        tree, memory = make_tree()
        before = tree.root.value
        write_covered(tree, memory, 0, b"\x01" * 64)
        assert tree.root.value != before

    def test_update_writes_nodes_through_to_memory(self):
        tree, memory = make_tree()
        leaf_node = tree.geometry.level_bases[0]
        before = memory.read_block(leaf_node)
        write_covered(tree, memory, 0, b"\x02" * 64)
        assert memory.read_block(leaf_node) != before

    def test_fresh_tree_from_same_memory_agrees(self):
        """Rebuilding over the updated memory yields the same root —
        updates and build() are consistent."""
        tree, memory = make_tree()
        for block in (0, 5, 63):
            write_covered(tree, memory, block * 64, bytes([block + 1]) * 64)
        root_after_updates = tree.root.value
        rebuilt = MerkleTree(memory, tree.geometry, tree.mac)
        rebuilt.build()
        assert rebuilt.root.value == root_after_updates


@settings(max_examples=10, deadline=None)
@given(writes=st.lists(
    st.tuples(st.integers(min_value=0, max_value=31), st.binary(min_size=64, max_size=64)),
    max_size=20,
))
def test_random_write_sequences_stay_consistent(writes):
    tree, memory = make_tree(covered_blocks=32)
    shadow = {}
    for block, data in writes:
        write_covered(tree, memory, block * 64, data)
        shadow[block] = data
    for block in range(32):
        tree.verify(block * 64)
        expected = shadow.get(block, bytes(64))
        assert memory.read_block(block * 64) == expected
