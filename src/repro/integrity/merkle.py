"""Functional Merkle trees over a region of (attackable) physical memory.

This is the real thing, not a timing abstraction: node blocks live in the
:class:`~repro.mem.dram.BlockMemory` where an adversary can flip them, the
root MAC lives in an on-chip register, and every read of a covered block
verifies a MAC chain up to the first *trusted on-chip copy* of a node (the
caching optimization of [Gassend et al. HPCA'03] that the paper builds on).

One engine, :class:`MerkleTree`, with two independent policies:

Materialization (``lazy``)
    ``lazy=False`` — ``build()`` computes every node from memory up front,
    the secure-boot step the paper assumes (section 3). ``lazy=True`` —
    ``build()`` is O(1): it anchors the root over the deterministic
    zero-fill image and materializes nothing. An unmaterialized node is
    definitionally the zero block; the on-chip materialization set vouches
    for it, so it costs no memory read and no MAC check. A level-1 node is
    *adopted* on first touch: its MAC slots are computed from the covered
    blocks' current memory (lazy measurement, the same trust step as an
    eager build, taken per subtree on demand). What the lazy policy
    deliberately does not detect is tampering with blocks *never yet
    touched*: they are unmeasured, as pre-boot memory is for an eager
    build. That blind spot belongs to ``lazy=True`` alone.

Write-back (``coalesce``)
    ``coalesce=False`` — write-through: ``update()`` recomputes the MAC
    chain to the root, storing each node both on-chip and in memory, and
    refreshes the root register. Evicting a trusted copy is always safe.
    ``coalesce=True`` — ``update()`` patches only the leaf's parent in an
    on-chip *dirty set*, a write-back cache of node blocks whose bytes have
    not reached memory. :meth:`MerkleTree.drain` and
    :meth:`MerkleTree.flush_pending` walk it bottom-up: each dirty node is
    written back once, its MAC patched into its parent (dirtying it in
    turn), and the root register is refreshed once per batch. Overlapping
    paths merge — the deferred tree maintenance of Freij et al.
    (*Streamlining Integrity Tree Updates for Secure Persistent
    Non-Volatile Memory*, arXiv 2003.04693).

Verification resolves nodes dirty-first: a dirty node's bytes are on-chip
and trusted outright; a clean node is fetched from memory and checked
against its parent's *effective* (dirty or verified) bytes. A clean
child's MAC slot in its parent's effective bytes always matches the
child's memory content, so tampering with any measured block raises
:class:`IntegrityError` at every point, whatever has been drained. After
``drain(full=True)`` every policy leaves the tree node-for-node identical
to an eager build over the same memory.

Node blocks are mutated only through the tree's own update/drain API
— the SCH002 lint rule holds the rest of the repository to that (no
direct node-store writes outside ``repro.integrity``), so every path
that can move the root is auditable in this package.
"""

from __future__ import annotations

from collections import OrderedDict

from ..crypto.mac import MacFunction
from ..mem.dram import BlockMemory
from ..mem.layout import BLOCK_SIZE, block_address
from ..core.errors import IntegrityError
from .geometry import TreeGeometry


class RootRegister:
    """The on-chip secure register holding the tree's root MAC."""

    def __init__(self):
        self.value: bytes | None = None
        self.updates = 0

    def store(self, mac: bytes) -> None:
        self.value = bytes(mac)
        self.updates += 1


class MerkleTree:
    """A Merkle tree over covered memory, with a trusted on-chip node cache.

    ``lazy`` picks the materialization policy and ``coalesce`` the
    write-back policy (see the module docstring); the defaults are the
    eager, write-through tree.
    """

    def __init__(
        self,
        memory: BlockMemory,
        geometry: TreeGeometry,
        mac: MacFunction,
        trusted_capacity: int | None = None,
        *,
        lazy: bool = False,
        coalesce: bool = False,
    ):
        self.memory = memory
        self.geometry = geometry
        self.mac = mac
        self.lazy = lazy
        self.coalesce = coalesce
        self.root = RootRegister()
        self._trusted: OrderedDict[int, bytes] = OrderedDict()
        self._trusted_capacity = trusted_capacity
        # verify_root() memo: (top-node raw bytes, MAC over them). Keyed
        # on the bytes themselves, so a stale entry is impossible — any
        # change to the top node misses and recomputes.
        self._root_mac_memo: tuple[bytes, bytes] | None = None
        # On-chip write-back cache: (level, index) -> current node bytes
        # not yet written to memory. Authoritative over memory and over
        # the clean trusted cache. Only coalescing updates and lazy
        # adoption put nodes here.
        self._dirty: dict[tuple[int, int], bytes] = {}
        # Lazy policy: nodes whose bytes have ever been written to memory.
        # Everything else is definitionally the zero block (level >= 2) or
        # awaits adoption (level 1). Persisted across hibernation.
        self._materialized: set[tuple[int, int]] = set()
        # Statistics.
        self.verifications = 0
        self.node_fetches = 0  # node blocks read from memory (not on-chip)
        self.trusted_hits = 0
        self.scheduled_updates = 0  # coalescing updates queued
        self.coalesced_updates = 0  # ... absorbed into an already-dirty node
        self.drained_nodes = 0  # node blocks written back by drains
        self.drains = 0  # drain batches that wrote at least one node
        self.adoptions = 0  # level-1 nodes materialized on first touch

    # -- MAC helpers ---------------------------------------------------------

    def _mac_child(self, child_bytes: bytes, child_level: int, child_index: int) -> bytes:
        """MAC binding a child block to its level and position (anti-splicing)."""
        binding = child_level.to_bytes(2, "big") + child_index.to_bytes(8, "big")
        return self.mac.compute(child_bytes + binding)

    def _mac_top(self, top_bytes: bytes) -> bytes:
        return self.mac.compute(top_bytes + b"\xff\xfftree-root")

    def _node_address(self, level: int, index: int) -> int:
        return self.geometry.level_bases[level - 1] + index * BLOCK_SIZE

    # -- construction ----------------------------------------------------------

    def build(self) -> None:
        """(Re)establish the root over current memory (secure boot).

        Eager: compute every node from current memory content — the
        secure-boot step the paper assumes has already happened (section
        3). Lazy: anchor the root over the zero image in O(1); covered
        memory and the node region start zero-filled (the
        :class:`~repro.mem.dram.BlockMemory` is sparse), so that root is
        consistent with what memory holds, and subtrees earn real content
        on first touch.
        """
        self._dirty.clear()
        self._materialized.clear()
        self._trusted.clear()
        self._root_mac_memo = None
        if self.lazy:
            self.root.store(self._mac_top(bytes(BLOCK_SIZE)))
            return
        geometry = self.geometry
        arity = geometry.arity
        mac_bytes = self.mac.mac_bytes
        children = geometry.covered_bytes // BLOCK_SIZE
        child_reader = lambda i: self.memory.read_block(geometry.covered_start + i * BLOCK_SIZE)
        for level in range(1, geometry.levels + 1):
            base = geometry.level_bases[level - 1]
            count = geometry.level_counts[level - 1]
            next_reader_blocks = []
            for node_index in range(count):
                node = bytearray(BLOCK_SIZE)
                first = node_index * arity
                for slot in range(min(arity, children - first)):
                    child_index = first + slot
                    mac = self._mac_child(child_reader(child_index), level - 1, child_index)
                    node[slot * mac_bytes : (slot + 1) * mac_bytes] = mac
                node_bytes = bytes(node)
                self.memory.write_block(base + node_index * BLOCK_SIZE, node_bytes)
                next_reader_blocks.append(node_bytes)
            children = count
            child_reader = lambda i, blocks=next_reader_blocks: blocks[i]
        self.root.store(self._mac_top(child_reader(0)))

    def _adopt(self, index: int) -> bytes:
        """Materialize level-1 node ``index`` from current leaf memory.

        The lazy-measurement step: the subtree's covered blocks are
        measured now, exactly as an eager ``build()`` would have measured
        them at boot. The fresh node enters the dirty set (its bytes are
        on-chip only until written back)."""
        geometry = self.geometry
        mac_bytes = self.mac.mac_bytes
        first, count = geometry.node_child_range(1, index)
        node = bytearray(BLOCK_SIZE)
        for slot in range(count):
            child = first + slot
            leaf = self.memory.read_block(geometry.covered_start + child * BLOCK_SIZE)
            node[slot * mac_bytes : (slot + 1) * mac_bytes] = self._mac_child(leaf, 0, child)
        node_bytes = bytes(node)
        self.adoptions += 1
        self._set_dirty(1, index, node_bytes)
        return node_bytes

    # -- trusted on-chip copies ----------------------------------------------

    def _trust(self, address: int, node_bytes: bytes) -> None:
        cache = self._trusted
        if address in cache:
            cache.move_to_end(address)
        cache[address] = node_bytes
        if self._trusted_capacity is not None and len(cache) > self._trusted_capacity:
            cache.popitem(last=False)  # clean copies only: safe to drop

    def _set_dirty(self, level: int, index: int, node_bytes: bytes) -> None:
        """Install a node's current bytes in the on-chip dirty set.

        Any clean trusted copy of the same node is stale and dropped —
        the dirty bytes are now the node's only truth."""
        self._dirty[(level, index)] = node_bytes
        self._trusted.pop(self._node_address(level, index), None)

    def trusted_nodes(self) -> int:
        return len(self._trusted)

    def clear_volatile(self) -> None:
        """Power cycle: write back the dirty set, then drop every trusted
        on-chip node copy.

        The dirty set holds bytes memory does not, so like any dirty cache
        it is written back first. The root register, the in-memory nodes
        and the materialization set survive; future reads re-verify MAC
        chains up from memory against the preserved root.
        """
        if self._dirty:
            self._drain_dirty(None, None)
        self._trusted.clear()

    def invalidate_covered_range(self, start: int, length: int) -> int:
        """Drop trusted copies of every node covering [start, start+length).

        Used when a page is swapped out: future accesses to the reused
        frame must re-verify through memory (paper section 5.1, step 3).
        Only the clean on-chip copies are dropped — pending (dirty,
        authoritative) nodes survive until drained.
        """
        geometry = self.geometry
        dropped = set()
        first = block_address(start)
        for addr in range(first, start + length, BLOCK_SIZE):
            if not geometry.covers(addr):
                continue
            for ref in geometry.walk(addr):
                if ref.address in self._trusted and ref.address not in dropped:
                    # Only drop nodes fully inside the invalidated subtree;
                    # upper shared nodes stay (they are still valid).
                    first_child, count = geometry.node_child_range(ref.level, ref.index)
                    if ref.level == 1:
                        child_lo = geometry.covered_start + first_child * BLOCK_SIZE
                        child_hi = child_lo + count * BLOCK_SIZE
                        if start <= child_lo and child_hi <= start + length:
                            dropped.add(ref.address)
        for address in dropped:
            self._trusted.pop(address, None)
        return len(dropped)

    # -- verification ------------------------------------------------------------

    def _trusted_node(self, level: int, index: int) -> bytes:
        """Current *effective* bytes of node (level, index), trusted.

        Resolution order: dirty set (on-chip, trusted outright) → clean
        trusted cache → unmaterialized under the lazy policy (zero block
        at level >= 2, adopted at level 1) → memory fetch verified against
        the parent's effective bytes (or the root register at the top)."""
        if self._dirty:
            dirty = self._dirty.get((level, index))
            if dirty is not None:
                self.trusted_hits += 1
                return dirty
        address = self.geometry.level_bases[level - 1] + index * BLOCK_SIZE
        cached = self._trusted.get(address)
        if cached is not None:
            self.trusted_hits += 1
            self._trusted.move_to_end(address)
            return cached
        if self.lazy and (level, index) not in self._materialized:
            if level == 1:
                return self._adopt(index)
            # Unbuilt subtree: the deterministic zero block, vouched for
            # by the on-chip materialization set — no memory read.
            return bytes(BLOCK_SIZE)
        raw = self.memory.read_block(address)
        self.node_fetches += 1
        if level == self.geometry.levels:
            if self.root.value is None:
                raise IntegrityError("tree has no root; call build() first", kind="root")
            if self._mac_top(raw) != self.root.value:
                raise IntegrityError(
                    f"Merkle root mismatch for top node at {address:#x}",
                    address=address,
                    kind="root",
                )
        else:
            parent = self._trusted_node(level + 1, index // self.geometry.arity)
            slot = index % self.geometry.arity
            mac_bytes = self.mac.mac_bytes
            stored = parent[slot * mac_bytes : (slot + 1) * mac_bytes]
            if self._mac_child(raw, level, index) != stored:
                raise IntegrityError(
                    f"Merkle node mismatch at level {level}, index {index}",
                    address=address,
                    kind="node",
                )
        self._trust(address, raw)
        return raw

    def verify(self, address: int, data: bytes | None = None) -> None:
        """Verify the covered block at ``address`` (optionally with the
        just-fetched ``data`` to avoid a re-read). Raises IntegrityError.

        The parent resolves through the dirty set first, so verification
        is sound at any point mid-amortization — queued updates count."""
        self.verifications += 1
        geometry = self.geometry
        index = geometry.child_index(address)
        raw = data if data is not None else self.memory.read_block(block_address(address))
        parent = self._trusted_node(1, index // geometry.arity)
        slot = index % geometry.arity
        mac_bytes = self.mac.mac_bytes
        stored = parent[slot * mac_bytes : (slot + 1) * mac_bytes]
        if self._mac_child(raw, 0, index) != stored:
            raise IntegrityError(
                f"Merkle leaf mismatch for block at {address:#x}",
                address=address,
                kind="leaf",
            )

    def verify_root(self) -> None:
        """Check the top node in memory still matches the root register.

        One block read plus (at most) one MAC — cheap enough for the
        runtime sanitizer to call periodically. Reads via ``raw_read`` so
        the check itself neither consumes pending bus intercepts nor
        shows up in the access log (it models on-chip logic, not a bus
        transaction). The MAC over the top node is memoized on the raw
        bytes themselves: repeated spot checks between updates cost no
        MAC computation, and any change to the node (an update's rewrite
        or an adversary's flip) misses the memo and recomputes.
        """
        if self.root.value is None:
            raise IntegrityError("tree has no root; call build() first", kind="root")
        top_address = self.geometry.level_bases[-1]
        raw = self.memory.raw_read(top_address)
        memo = self._root_mac_memo
        if memo is not None and memo[0] == raw:
            mac = memo[1]
        else:
            mac = self._mac_top(raw)
            self._root_mac_memo = (raw, mac)
        if mac != self.root.value:
            raise IntegrityError(
                f"root register does not match top node at {top_address:#x}",
                address=top_address,
                kind="root",
            )

    # -- update -----------------------------------------------------------------

    def update(self, address: int, new_data: bytes) -> None:
        """Re-anchor the tree after the covered block at ``address`` changed.

        ``new_data`` must already be the block's bytes in memory (the
        memory controller writes data first, then updates the tree).
        Write-through walks the MAC chain to the root now; coalescing
        patches only the leaf's parent in the dirty set and leaves the
        levels above to the next drain.
        """
        if self.coalesce:
            self._schedule(address, new_data)
            return
        geometry = self.geometry
        arity = geometry.arity
        bases = geometry.level_bases
        mac_bytes = self.mac.mac_bytes
        mac_child = self._mac_child
        write = self.memory.write_block
        trusted = self._trusted
        dirty = self._dirty
        lazy = self.lazy
        index = geometry.child_index(address)
        child_bytes = new_data
        for level in range(1, geometry.levels + 1):
            node_index = index // arity
            node_address = bases[level - 1] + node_index * BLOCK_SIZE
            # One probe: a clean trusted copy (and no dirty set that could
            # shadow it) is used as is; anything else takes the full
            # resolution. Either way the node ends up most recently used.
            node = None if dirty else trusted.get(node_address)
            hit = node is not None
            if hit:
                self.trusted_hits += 1
            else:
                node = self._trusted_node(level, node_index)
            lo = (index % arity) * mac_bytes
            mac = mac_child(child_bytes, level - 1, index)
            node_bytes = node[:lo] + mac + node[lo + mac_bytes:]
            write(node_address, node_bytes)
            if lazy:
                # The walk wrote the node's effective bytes: an adopted
                # (dirty) node is now clean and materialized.
                key = (level, node_index)
                dirty.pop(key, None)
                self._materialized.add(key)
            if hit:
                trusted[node_address] = node_bytes
                trusted.move_to_end(node_address)
            else:
                self._trust(node_address, node_bytes)
            child_bytes = node_bytes
            index = node_index
        self.root.store(self._mac_top(child_bytes))

    def _schedule(self, address: int, new_data: bytes) -> None:
        """Coalescing update: patch the leaf's slot in its parent, on-chip."""
        geometry = self.geometry
        index = geometry.child_index(address)
        parent_index = index // geometry.arity
        # Dirty-by-a-previous-update is what coalescing absorbs; resolving
        # the parent below may adopt it (dirtying it as a side effect), so
        # snapshot first.
        was_dirty = (1, parent_index) in self._dirty
        parent = self._trusted_node(1, parent_index)
        mac_bytes = self.mac.mac_bytes
        lo = (index % geometry.arity) * mac_bytes
        mac = self._mac_child(new_data, 0, index)
        self.scheduled_updates += 1
        if was_dirty:
            self.coalesced_updates += 1
        self._set_dirty(1, parent_index, parent[:lo] + mac + parent[lo + mac_bytes:])

    # -- draining --------------------------------------------------------------

    def _drain_dirty(self, targets: set[tuple[int, int]] | None, budget: int | None) -> int:
        """Write back dirty nodes bottom-up, optionally limited to
        ``targets`` and/or a node ``budget``. Returns nodes written.

        Bottom-up order makes a budget cut sound: a written child's MAC
        lands in its (still dirty, on-chip) parent before anything above
        is considered, so the invariant — clean children match their
        parent's effective slot — holds at every prefix."""
        geometry = self.geometry
        arity = geometry.arity
        bases = geometry.level_bases
        mac_bytes = self.mac.mac_bytes
        mac_child = self._mac_child
        write = self.memory.write_block
        dirty = self._dirty
        levels = geometry.levels
        written = 0
        for level in range(1, levels + 1):
            keys = sorted(key for key in dirty if key[0] == level)
            if targets is not None:
                keys = [key for key in keys if key in targets]
            for key in keys:
                if budget is not None and written >= budget:
                    if written:
                        self.drains += 1
                    return written
                node_bytes = dirty.pop(key)
                index = key[1]
                node_address = bases[level - 1] + index * BLOCK_SIZE
                write(node_address, node_bytes)
                if self.lazy:
                    self._materialized.add(key)
                self._trust(node_address, node_bytes)
                written += 1
                self.drained_nodes += 1
                if level == levels:
                    # One root refresh per batch: the single top node.
                    self.root.store(self._mac_top(node_bytes))
                else:
                    parent_index = index // arity
                    parent = self._trusted_node(level + 1, parent_index)
                    lo = (index % arity) * mac_bytes
                    mac = mac_child(node_bytes, level, index)
                    self._set_dirty(level + 1, parent_index,
                                    parent[:lo] + mac + parent[lo + mac_bytes:])
        if written:
            self.drains += 1
        return written

    def drain(self, budget: int | None = None, full: bool = False) -> int:
        """Apply up to ``budget`` pending node writes (all, if None).

        ``full=True`` first adopts every unmaterialized level-1 node, then
        drains everything (``budget`` is ignored): the finished tree is
        node-for-node identical to an eager build over the same memory.
        """
        if full:
            if self.lazy:
                for index in range(self.geometry.level_counts[0]):
                    key = (1, index)
                    if key not in self._materialized and key not in self._dirty:
                        self._adopt(index)
            budget = None
        return self._drain_dirty(None, budget)

    def flush_pending(self, start: int | None = None, length: int | None = None) -> int:
        """Drain the dirty nodes on the paths covering [start, start+length)
        — or all of them — up to the root. Returns nodes written.

        The swap path calls this when a page's counter run is installed
        (its fresh metadata must be anchored before the image's page root
        can ever verify against it) and the machine calls the no-argument
        form before hibernating (the dirty set is volatile; the persisted
        root must cover what memory holds).
        """
        if not self._dirty:
            return 0
        if start is None:
            return self._drain_dirty(None, None)
        geometry = self.geometry
        span = BLOCK_SIZE if length is None else length
        targets: set[tuple[int, int]] = set()
        for addr in range(block_address(start), start + span, BLOCK_SIZE):
            if not geometry.covers(addr):
                continue
            for ref in geometry.walk(addr):
                targets.add((ref.level, ref.index))
        if not targets:
            return 0
        return self._drain_dirty(targets, None)

    # -- hibernation -----------------------------------------------------------

    def persist_state(self):
        """Non-volatile tree state for hibernation: the lazy policy's
        materialization set (None for an eager tree).

        Without it a resumed lazy tree would re-adopt already-measured
        leaves, silently blessing any tampering done while powered down —
        the hibernation attack the paper's design detects. The machine
        calls :meth:`flush_pending` first, so the dirty set is empty here."""
        if not self.lazy:
            return None
        return {"materialized": sorted(self._materialized)}

    def restore_state(self, state) -> None:
        """Restore :meth:`persist_state` output after resume."""
        if state:
            self._materialized = {(level, index) for level, index in state["materialized"]}

    def restore_root(self, mac: bytes) -> None:
        """Reload the sealed root register after hibernation resume.

        The one sanctioned root write from outside the tree: the value
        comes from the machine's NVRAM capsule, not from a recompute, so
        it goes through this method rather than ``root.store`` directly
        (the SCH002 lint rule holds callers to that).
        """
        self.root.store(mac)
        self._root_mac_memo = None

    # -- gauges ----------------------------------------------------------------

    def pending_updates(self) -> int:
        """Dirty node blocks queued on-chip, not yet written to memory."""
        return len(self._dirty)

    def materialized_fraction(self) -> float:
        """Fraction of the tree's node blocks materialized in memory."""
        total = sum(self.geometry.level_counts)
        if not self.lazy or not total:
            return 1.0
        return len(self._materialized) / total

    def coalesce_ratio(self) -> float:
        """Scheduled updates absorbed into an already-dirty node / total."""
        if not self.scheduled_updates:
            return 0.0
        return self.coalesced_updates / self.scheduled_updates
