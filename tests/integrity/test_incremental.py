"""The incremental tree policies: lazy subtrees, coalesced updates, eager parity.

``MerkleTree(lazy=True, coalesce=True)`` is the incremental configuration
the ``bmt_lazy`` scheme runs. The load-bearing property is at the top:
for *any* access sequence — updates, verifies, partial drains, ranged
flushes, interleaved however — ``drain(full=True)`` leaves it
node-for-node identical to an eager build over the same memory, root
register included. Every acceptance property of the deferred design
hangs off that: soundness of budget-cut drains, tamper detection through
a half-built tree, and the hibernation persistence of the
materialization set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IntegrityError
from repro.crypto.mac import Blake2Mac
from repro.integrity.geometry import TreeGeometry
from repro.integrity.merkle import MerkleTree
from repro.mem.dram import BlockMemory

BLOCK = 64
COVERED_BLOCKS = 64
MAC_BYTES = 16
KEY = b"incremental-tree"


def make_lazy(memory, geometry, coalesce=True, capacity=None):
    return MerkleTree(memory, geometry, Blake2Mac(KEY, MAC_BYTES * 8),
                      trusted_capacity=capacity, lazy=True, coalesce=coalesce)


def make_pair(coalesce=True, capacity=None):
    """A lazy tree and an eager write-through tree over twin memories."""
    covered = COVERED_BLOCKS * BLOCK
    geometry = TreeGeometry(0, covered, covered, MAC_BYTES)
    lazy_mem = BlockMemory(geometry.nodes_end + 4096)
    eager_mem = BlockMemory(geometry.nodes_end + 4096)
    lazy = make_lazy(lazy_mem, geometry, coalesce, capacity)
    eager = MerkleTree(eager_mem, geometry, Blake2Mac(KEY, MAC_BYTES * 8))
    lazy.build()
    eager.build()
    return lazy, lazy_mem, eager, eager_mem


def write_covered(tree, memory, address, data):
    memory.write_block(address, data)
    tree.update(address, data)


def node_region(tree, memory):
    """Every node block's memory content, as a comparable dict."""
    g = tree.geometry
    out = {}
    for level in range(1, g.levels + 1):
        base = g.level_bases[level - 1]
        for index in range(g.level_counts[level - 1]):
            out[(level, index)] = memory.raw_read(base + index * BLOCK)
    return out


# One random action per element: (kind, block, byte, drain_budget).
_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["write", "verify", "drain", "flush"]),
        st.integers(min_value=0, max_value=COVERED_BLOCKS - 1),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=60,
)


class TestEagerParity:
    """The core invariant: full drain == eager build, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(_ACTIONS)
    def test_any_sequence_converges_to_the_eager_tree(self, actions):
        lazy, lazy_mem, eager, eager_mem = make_pair()
        for kind, block, byte, budget in actions:
            addr = block * BLOCK
            if kind == "write":
                data = bytes([byte]) * BLOCK
                write_covered(lazy, lazy_mem, addr, data)
                write_covered(eager, eager_mem, addr, data)
            elif kind == "verify":
                lazy.verify(addr)
                eager.verify(addr)
            elif kind == "drain":
                lazy.drain(budget=budget)
            else:
                lazy.flush_pending(addr, BLOCK)
        lazy.drain(full=True)
        assert lazy.pending_updates() == 0
        assert lazy.root.value == eager.root.value
        assert node_region(lazy, lazy_mem) == node_region(eager, eager_mem)
        assert lazy.materialized_fraction() == 1.0

    @settings(max_examples=20, deadline=None)
    @given(_ACTIONS)
    def test_verification_stays_sound_mid_amortization(self, actions):
        """Every covered block verifies at every intermediate state."""
        lazy, lazy_mem, _, _ = make_pair()
        touched = set()
        for kind, block, byte, budget in actions:
            addr = block * BLOCK
            if kind == "write":
                write_covered(lazy, lazy_mem, addr, bytes([byte]) * BLOCK)
                touched.add(addr)
            elif kind == "drain":
                lazy.drain(budget=budget)
            for a in touched:
                lazy.verify(a)

    def test_untouched_tree_drains_to_eager_over_zero_memory(self):
        lazy, lazy_mem, eager, eager_mem = make_pair()
        lazy.drain(full=True)
        assert lazy.root.value == eager.root.value
        assert node_region(lazy, lazy_mem) == node_region(eager, eager_mem)


class TestLazyMaterialization:
    def test_build_is_o1(self):
        lazy, lazy_mem, _, _ = make_pair()
        assert lazy.materialized_fraction() == 0.0
        assert lazy.pending_updates() == 0
        assert lazy_mem.raw_read(lazy.geometry.level_bases[0]) == bytes(BLOCK)

    def test_first_touch_adopts_exactly_one_subtree(self):
        lazy, lazy_mem, _, _ = make_pair()
        lazy.verify(0)
        assert lazy.adoptions == 1
        lazy.verify(BLOCK)  # same level-1 parent: no second adoption
        assert lazy.adoptions == 1
        lazy.verify((COVERED_BLOCKS - 1) * BLOCK)  # different subtree
        assert lazy.adoptions == 2

    def test_unbuilt_subtrees_cost_no_node_fetches(self):
        lazy, _, _, _ = make_pair()
        lazy.verify(0)
        assert lazy.node_fetches == 0  # zero nodes vouched on-chip


class TestScheduling:
    def test_update_touches_only_the_parent(self):
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 0, b"\x01" * BLOCK)
        assert lazy.pending_updates() == 1
        assert lazy.drained_nodes == 0

    def test_sibling_updates_coalesce(self):
        lazy, lazy_mem, _, _ = make_pair()
        arity = lazy.geometry.arity
        for slot in range(arity):
            write_covered(lazy, lazy_mem, slot * BLOCK, bytes([slot + 1]) * BLOCK)
        assert lazy.scheduled_updates == arity
        assert lazy.coalesced_updates == arity - 1
        assert lazy.coalesce_ratio() == pytest.approx((arity - 1) / arity)
        assert lazy.pending_updates() == 1  # one dirty parent

    def test_budget_cut_drain_is_sound_and_resumable(self):
        lazy, lazy_mem, eager, eager_mem = make_pair()
        for block in (0, 13, 37, 63):
            data = bytes([block]) * BLOCK
            write_covered(lazy, lazy_mem, block * BLOCK, data)
            write_covered(eager, eager_mem, block * BLOCK, data)
        wrote = lazy.drain(budget=2)
        assert wrote == 2
        for block in (0, 13, 37, 63):
            lazy.verify(block * BLOCK)  # sound at the prefix
        lazy.drain(full=True)
        assert lazy.root.value == eager.root.value

    def test_flush_pending_covers_the_range_up_to_the_root(self):
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 0, b"\xaa" * BLOCK)
        write_covered(lazy, lazy_mem, 63 * BLOCK, b"\xbb" * BLOCK)
        lazy.flush_pending(0, BLOCK)
        # Block 0's whole path (shared root included) drained; block 63's
        # level-1 parent is still queued.
        assert lazy.pending_updates() == 1
        root_after_flush = lazy.root.value
        lazy.drain(full=False)
        assert lazy.root.value != root_after_flush  # 63's path moved it

    def test_noncoalescing_mode_drains_per_update(self):
        """Write-through: each update walks its path to the root at once."""
        lazy, lazy_mem, _, _ = make_pair(coalesce=False)
        for block in (0, 5, 42):
            before = lazy.root.updates
            write_covered(lazy, lazy_mem, block * BLOCK, b"\x07" * BLOCK)
            assert lazy.pending_updates() == 0  # adopted parent written too
            assert lazy.root.updates == before + 1
        assert lazy.scheduled_updates == 0

    def test_noncoalescing_matches_eager_root_continuously(self):
        lazy, lazy_mem, eager, eager_mem = make_pair(coalesce=False)
        for block in range(8):
            data = bytes([block + 1]) * BLOCK
            write_covered(lazy, lazy_mem, block * BLOCK, data)
            write_covered(eager, eager_mem, block * BLOCK, data)
            lazy.drain(full=True)
            assert lazy.root.value == eager.root.value
            assert node_region(lazy, lazy_mem) == node_region(eager, eager_mem)


class TestTamperDetection:
    def test_leaf_tamper_mid_amortization_detected(self):
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 256, b"\x11" * BLOCK)
        lazy_mem.corrupt(256)
        with pytest.raises(IntegrityError) as err:
            lazy.verify(256)
        assert err.value.kind == "leaf"

    def test_node_tamper_after_drain_detected(self):
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 0, b"\x22" * BLOCK)
        lazy.drain()
        lazy.clear_volatile()
        lazy_mem.corrupt(lazy.geometry.level_bases[0])
        with pytest.raises(IntegrityError) as err:
            lazy.verify(0)
        assert err.value.kind in ("node", "root", "leaf")

    def test_top_node_tamper_detected_against_root_register(self):
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 0, b"\x33" * BLOCK)
        lazy.drain()
        lazy.clear_volatile()
        top_base = lazy.geometry.level_bases[lazy.geometry.levels - 1]
        lazy_mem.corrupt(top_base)
        with pytest.raises(IntegrityError) as err:
            lazy.verify(0)
        assert err.value.kind == "root"

    @settings(max_examples=20, deadline=None)
    @given(_ACTIONS, st.integers(min_value=0, max_value=COVERED_BLOCKS - 1))
    def test_tamper_detected_at_every_amortization_point(self, actions, victim):
        """Measure a block, replay the sequence, tamper, verify: raises —
        whatever partial-drain state the sequence left behind."""
        lazy, lazy_mem, _, _ = make_pair()
        victim_addr = victim * BLOCK
        write_covered(lazy, lazy_mem, victim_addr, b"\x55" * BLOCK)
        for kind, block, byte, budget in actions:
            addr = block * BLOCK
            if kind == "write" and addr != victim_addr:
                write_covered(lazy, lazy_mem, addr, bytes([byte]) * BLOCK)
            elif kind == "drain":
                lazy.drain(budget=budget)
            elif kind == "flush":
                lazy.flush_pending(addr, BLOCK)
        lazy_mem.corrupt(victim_addr)
        with pytest.raises(IntegrityError):
            lazy.verify(victim_addr)


class TestHibernation:
    def test_persist_restore_keeps_materialization(self):
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 0, b"\x66" * BLOCK)
        lazy.flush_pending()
        state = lazy.persist_state()
        assert state["materialized"]

        resumed = make_lazy(lazy_mem, lazy.geometry)
        resumed.restore_root(lazy.root.value)
        resumed.restore_state(state)
        resumed.verify(0)

    def test_restore_prevents_readoption_of_tampered_leaves(self):
        """The hibernation attack: tamper a measured block while powered
        down. Without the persisted materialization set the resumed tree
        would re-adopt (bless) it; with it, verification fails."""
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 0, b"\x77" * BLOCK)
        lazy.flush_pending()
        state = lazy.persist_state()
        root = lazy.root.value

        lazy_mem.corrupt(0)  # powered-down tamper
        resumed = make_lazy(lazy_mem, lazy.geometry)
        resumed.restore_root(root)
        resumed.restore_state(state)
        with pytest.raises(IntegrityError):
            resumed.verify(0)

    def test_clear_volatile_flushes_the_writeback_queue(self):
        lazy, lazy_mem, _, _ = make_pair()
        write_covered(lazy, lazy_mem, 0, b"\x88" * BLOCK)
        assert lazy.pending_updates() == 1
        lazy.clear_volatile()
        assert lazy.pending_updates() == 0
        assert lazy.trusted_nodes() == 0
        lazy.verify(0)  # re-verifies up from memory against the root


# The plain (eager, write-through) and the incremental (lazy, coalescing)
# configurations.
POLICIES = pytest.mark.parametrize(
    "policy",
    [{}, {"lazy": True, "coalesce": True}],
    ids=["MerkleTree", "IncrementalMerkleTree"],
)


class TestRootMemo:
    """Satellite regression: verify_root memoizes the top-node MAC."""

    def _mac_counting_tree(self, policy):
        covered = COVERED_BLOCKS * BLOCK
        geometry = TreeGeometry(0, covered, covered, MAC_BYTES)
        memory = BlockMemory(geometry.nodes_end + 4096)

        class CountingMac(Blake2Mac):
            calls = 0

            def compute(self, data):
                CountingMac.calls = CountingMac.calls + 1
                return super().compute(data)

        tree = MerkleTree(memory, geometry, CountingMac(KEY, MAC_BYTES * 8), **policy)
        tree.build()
        return tree, memory, CountingMac

    @POLICIES
    def test_repeated_spot_checks_cost_one_mac(self, policy):
        tree, _, counting = self._mac_counting_tree(policy)
        tree.verify_root()
        after_first = counting.calls
        for _ in range(10):
            tree.verify_root()
        assert counting.calls == after_first  # memo hit: zero extra MACs

    @POLICIES
    def test_update_invalidates_the_memo(self, policy):
        tree, memory, counting = self._mac_counting_tree(policy)
        tree.verify_root()
        write_covered(tree, memory, 0, b"\x99" * BLOCK)
        tree.flush_pending()  # no-op for the write-through tree
        before = counting.calls
        tree.verify_root()  # top node changed: memo must miss, MAC recomputed
        assert counting.calls == before + 1
        tree.verify_root()
        assert counting.calls == before + 1

    @POLICIES
    def test_tampered_top_node_still_detected_after_memo_hits(self, policy):
        tree, memory, _ = self._mac_counting_tree(policy)
        tree.verify_root()
        tree.verify_root()
        top_base = tree.geometry.level_bases[tree.geometry.levels - 1]
        memory.corrupt(top_base)
        with pytest.raises(IntegrityError):
            tree.verify_root()
