"""Descriptor base classes: one object owns everything about one scheme.

A *scheme descriptor* is the single source of truth for one protection
scheme the paper compares. It spans both halves of the repository:

* the **functional machine** asks it for counter-region sizing, engine
  construction, and the per-page counter export/install layout the swap
  path serializes;
* the **timing simulator** asks it for the metadata-traffic model —
  counter-cache eligibility, the data span of one counter block, whether
  misses walk a Merkle tree or fetch per-block MACs.

Before this layer existed those facts were re-derived in
``core/machine.py``, ``sim/simulator.py``, and the swap path
independently — and had already drifted (multi-block counter runs were
exported one block short). Adding a new scheme now means subclassing
these bases in one module and registering the instance; see
``docs/architecture.md`` for a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..integrity.geometry import TreeGeometry
from ..mem.layout import BLOCK_SIZE, BLOCKS_PER_PAGE, round_to_blocks


@dataclass(frozen=True)
class UpdatePolicy:
    """How an integrity scheme's tree applies updates, timing-side.

    ``deferred=False`` (every eager scheme) walks the tree synchronously
    on each counter writeback. ``deferred=True`` queues the walk and
    drains the queue once it reaches ``batch`` entries (and at end of
    run); ``coalesce=True`` merges queued walks that share a counter
    block before draining, so overlapping dirty paths cost one walk.
    """

    deferred: bool = False
    batch: int = 8
    coalesce: bool = True


class EncryptionScheme:
    """Everything scheme-specific about one encryption baseline.

    Class attributes form the timing-side metadata traffic model; the
    methods serve the functional machine (layout planning, engine
    construction, swap-image counter serialization).
    """

    #: Registry key — the string ``MachineConfig.encryption`` carries.
    key: str = "abstract"

    #: The functional engine maintains counter state in memory.
    uses_counters = False
    #: The timing model routes counter fetches through the counter cache.
    uses_counter_cache = False
    #: Bytes of data whose counters share one 64B counter block (the
    #: timing model's addressing granularity). None when counter-free.
    counter_block_span: int | None = None
    #: Whole counter blocks a page's counter run occupies in a swap image.
    counter_blocks_per_page = 0
    #: Seeds include the physical address: the kernel must decrypt +
    #: re-encrypt pages crossing the memory/disk boundary (section 4.2).
    reencrypt_on_swap = False
    #: Decryption serializes after the data fetch (no counter to prefetch).
    serialized_decrypt = False
    #: Per-L2-line SRAM lost to scheme bookkeeping (Table 1's "VA storage
    #: in L2" for the virtual-address baseline).
    l2_tag_overhead_bytes = 0

    @property
    def image_counter_blocks(self) -> int:
        """Counter blocks reserved in a swap image (min. 1 for format
        stability: counter-free schemes ship one zero block)."""
        return max(1, self.counter_blocks_per_page)

    def counter_region_bytes(self, data_bytes: int) -> int:
        """Size of the physical counter region for a data region."""
        return 0

    def build_engine(self, machine, seed_audit=None):
        """Construct the functional encryption engine for a machine."""
        raise NotImplementedError

    def export_counter_run(self, machine, frame_index: int) -> bytes:
        """Serialize the page's counters for a swap image
        (``image_counter_blocks * BLOCK_SIZE`` bytes, zeros if none)."""
        return bytes(self.image_counter_blocks * BLOCK_SIZE)

    def install_counter_run(self, machine, frame_index: int, raw: bytes) -> None:
        """Place a swapped-in counter run at the (possibly new) frame's
        slot and re-anchor its integrity metadata."""
        return None

    def drop_page_state(self, machine, frame_index: int) -> None:
        """Drop on-chip per-page state for a vacated frame (section 5.1)."""
        return None

    def counter_run_range(self, machine, frame_index: int) -> tuple[int, int] | None:
        """(start, length) of the page's counter run in physical memory.

        The swap path flushes a deferred tree's pending updates over this
        range after :meth:`install_counter_run` — the freshly installed
        metadata must be anchored before the page image can verify.
        None when the scheme keeps no counters.
        """
        return None

    def engine_stats(self, engine) -> dict:
        """Pull-model stat bindings for :func:`repro.obs.adapters.register_machine`:
        {name: zero-arg callable} over the live engine."""
        return {}

    def __repr__(self):
        return f"<{type(self).__name__} {self.key!r}>"


class PagedCounterScheme(EncryptionScheme):
    """Base for AISE-family schemes: one 64B counter block per 4KB page.

    The counter block (64-bit LPID or major counter + 64 x 7-bit minors)
    is engine-parsed, so export/install go through the engine — exactly
    the paper's swap story (section 4.4): the block moves as-is.
    """

    uses_counters = True
    uses_counter_cache = True
    counter_block_span = BLOCKS_PER_PAGE * BLOCK_SIZE  # one page
    counter_blocks_per_page = 1

    def counter_region_bytes(self, data_bytes: int) -> int:
        return data_bytes // (BLOCKS_PER_PAGE * BLOCK_SIZE) * BLOCK_SIZE

    def export_counter_run(self, machine, frame_index: int) -> bytes:
        return machine.encryption.export_counter_block(frame_index)

    def install_counter_run(self, machine, frame_index: int, raw: bytes) -> None:
        machine.encryption.install_counter_block(frame_index, raw[:BLOCK_SIZE])

    def drop_page_state(self, machine, frame_index: int) -> None:
        machine.encryption.drop_cached_counters(frame_index)

    def counter_run_range(self, machine, frame_index: int) -> tuple[int, int] | None:
        page_start = frame_index * BLOCKS_PER_PAGE * BLOCK_SIZE
        return machine.encryption.counter_block_address(page_start), BLOCK_SIZE


class FlatCounterScheme(EncryptionScheme):
    """Base for schemes storing a fixed-width counter per data block.

    ``stamp_bytes`` wide counters are packed back to back in the counter
    region, so one 64B counter block covers ``64 // stamp_bytes`` data
    blocks and a page's counters occupy a whole, block-aligned run of
    ``counter_blocks_per_page`` blocks (the run a swap image carries).
    """

    uses_counters = True
    uses_counter_cache = True
    stamp_bytes = 4

    @property
    def counter_block_span(self) -> int:
        return (BLOCK_SIZE // self.stamp_bytes) * BLOCK_SIZE

    @property
    def counter_blocks_per_page(self) -> int:
        return (BLOCKS_PER_PAGE * self.stamp_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE

    def counter_region_bytes(self, data_bytes: int) -> int:
        return round_to_blocks(data_bytes // BLOCK_SIZE * self.stamp_bytes)

    def page_counter_base(self, machine, frame_index: int) -> int:
        """Physical address of the first counter block of a page's run."""
        return machine.encryption.counter_block_address(frame_index * BLOCKS_PER_PAGE * BLOCK_SIZE)

    def export_counter_run(self, machine, frame_index: int) -> bytes:
        base = self.page_counter_base(machine, frame_index)
        return b"".join(
            machine.memory.read_block(base + i * BLOCK_SIZE)
            for i in range(self.counter_blocks_per_page)
        )

    def install_counter_run(self, machine, frame_index: int, raw: bytes) -> None:
        base = self.page_counter_base(machine, frame_index)
        for i in range(self.counter_blocks_per_page):
            block = raw[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
            address = base + i * BLOCK_SIZE
            machine.memory.write_block(address, block)
            machine.integrity.update_metadata(address, block)

    def counter_run_range(self, machine, frame_index: int) -> tuple[int, int] | None:
        base = self.page_counter_base(machine, frame_index)
        return base, self.counter_blocks_per_page * BLOCK_SIZE


class IntegrityScheme:
    """Everything scheme-specific about one integrity organization."""

    #: Registry key — the string ``MachineConfig.integrity`` carries.
    key: str = "abstract"

    #: A Merkle tree exists (PRD storage is reserved; counter traffic
    #: walks it in the timing model).
    uses_tree = False
    #: The tree covers data blocks too (standard MT): data misses and
    #: writebacks walk it.
    tree_covers_data = False
    #: Per-block data MACs exist (BMT / MAC-only): data misses fetch them.
    uses_data_macs = False
    #: Default for ``MachineConfig.caches_data_macs`` (section 5.2: the
    #: standard MT caches leaf MACs in L2, the BMT does not).
    caches_data_macs_default = False
    #: Verification happens at all (precise mode stalls on it).
    verifies = True
    #: The scheme is meaningless without counter storage (the BMT).
    requires_counters = False
    #: How the tree applies updates (the timing model's deferral knobs).
    #: Eager schemes keep the default synchronous policy.
    update_policy = UpdatePolicy()
    #: Warm machine reuse is sound for this scheme: after
    #: :meth:`reset_timing_state` a pooled simulator produces results
    #: byte-identical to a freshly constructed one. A scheme keeping
    #: timing state the hook cannot discard must set this False — the
    #: service warm pool (:mod:`repro.service`) then refuses to pool its
    #: machines and builds fresh ones instead.
    warm_reuse_sound = True

    def reset_timing_state(self, sim) -> None:
        """Discard scheme-owned timing-model state ahead of warm reuse.

        Called from :meth:`repro.sim.simulator.TimingSimulator.reset_cold`
        between tenants. The base policy-driven behavior covers the
        builtin schemes: a deferred-update scheme drops its pending walk
        queue — walks the *previous* run still owed the bus must not be
        billed to the next tenant (they are drained, not leaked, before
        a pooled machine is released; this clear is the backstop that
        makes the cold-state contract unconditional). Schemes holding
        other timing state override (and call up to) this hook.
        """
        if self.update_policy.deferred:
            sim._pending_walks.clear()

    def plan_tree(
        self,
        config,
        data_bytes: int,
        counter_base: int,
        counter_bytes: int,
        prd_bytes: int,
        tree_base: int,
    ) -> TreeGeometry | None:
        """Tree geometry over the planned regions (None when treeless)."""
        return None

    def mac_region_bytes(self, config, data_bytes: int) -> int:
        """Size of the per-block data-MAC region."""
        return 0

    def build_engine(self, machine, geometry: TreeGeometry | None):
        """Construct the functional integrity engine for a machine."""
        raise NotImplementedError

    def build_tree(self, machine, geometry: TreeGeometry):
        """Construct the functional tree engine over planned geometry.

        The hook a scheme overrides in one line to pick the tree's
        ``lazy``/``coalesce`` policies; engines and the machine only ever
        see the :class:`~repro.integrity.merkle.MerkleTree` interface.
        """
        from ..integrity.merkle import MerkleTree

        return MerkleTree(machine.memory, geometry, machine.mac_fn)

    def tree_modules(self) -> tuple[str, ...]:
        """Module names of the tree implementation this scheme's machines
        run — folded into the sweep cache fingerprint so cached cells are
        never served across tree-engine changes."""
        if self.uses_tree:
            return ("repro.integrity.merkle",)
        return ()

    def engine_stats(self, engine) -> dict:
        """Pull-model stat bindings for :func:`repro.obs.adapters.register_machine`:
        {name: zero-arg callable} over the live integrity engine."""
        return {}

    def __repr__(self):
        return f"<{type(self).__name__} {self.key!r}>"
