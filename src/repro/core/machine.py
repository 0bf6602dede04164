"""The functional secure processor: encryption + integrity over real bytes.

:class:`SecureMemorySystem` wires together a physical memory (attackable
:class:`~repro.mem.dram.BlockMemory`), an encryption engine, an integrity
engine, the page-root directory, and the on-chip secrets (keys, GPC, root
register). Its block read/write path is the paper's hardware datapath:

    read:  fetch ciphertext -> obtain verified counter -> check MAC /
           Merkle chain -> generate pad from seed -> XOR -> plaintext
    write: advance counter (handling overflow) -> pad -> XOR ->
           store ciphertext -> update MAC / Merkle chain

It also provides the page-granular primitives the OS model needs for
swapping (export/install page images, page roots, subtree invalidation)
— crucially *without* decrypting anything for AISE-encrypted pages.

Everything scheme-specific — counter-region sizing, engine construction,
the per-page counter run a swap image carries — comes from the scheme
descriptors in :mod:`repro.schemes`; this module only orchestrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.mac import make_mac
from ..integrity.pageroot import PageRootDirectory
from ..mem.dram import BlockMemory
from ..mem.layout import BLOCK_SIZE, BLOCKS_PER_PAGE, PAGE_SIZE, block_address, round_to_blocks
from ..schemes import encryption_scheme, integrity_scheme
from .config import MachineConfig
from .counters import GlobalPageCounter
from .encryption import AccessContext, NULL_CONTEXT
from .errors import ConfigurationError


@dataclass(frozen=True)
class PhysicalLayout:
    """Where each metadata region lives in the functional physical memory.

    Regions are laid out contiguously::

        [ data | counters | page-root directory | tree nodes | data MACs ]

    so a Merkle tree can cover a contiguous prefix of the metadata.
    """

    data_bytes: int
    counter_base: int
    counter_bytes: int
    prd_base: int
    prd_bytes: int
    tree_base: int
    tree_bytes: int
    mac_base: int
    mac_bytes_region: int

    @property
    def total_bytes(self) -> int:
        return self.mac_base + self.mac_bytes_region

    def region_of(self, address: int) -> str:
        if address < self.data_bytes:
            return "data"
        if address < self.prd_base:
            return "counter"
        if address < self.tree_base:
            return "page_root"
        if address < self.mac_base:
            return "tree"
        if address < self.total_bytes:
            return "mac"
        return "outside"


def plan_layout(config: MachineConfig):
    """Compute the physical memory map for a configuration.

    Region sizes come from the configuration's scheme descriptors: the
    encryption scheme sizes the counter region, the integrity scheme
    plans its tree geometry and data-MAC region over the result.
    """
    data = config.physical_bytes
    if data % PAGE_SIZE:
        raise ConfigurationError("data region must be a whole number of pages")

    enc_scheme = encryption_scheme(config.encryption)
    integ_scheme = integrity_scheme(config.integrity)

    counter_bytes = enc_scheme.counter_region_bytes(data)
    swap_pages = (config.swap_bytes or data) // PAGE_SIZE
    prd_bytes = round_to_blocks(swap_pages * config.mac_bytes) if integ_scheme.uses_tree else 0

    counter_base = data
    prd_base = counter_base + counter_bytes
    tree_base = prd_base + prd_bytes

    geometry = integ_scheme.plan_tree(
        config,
        data_bytes=data,
        counter_base=counter_base,
        counter_bytes=counter_bytes,
        prd_bytes=prd_bytes,
        tree_base=tree_base,
    )
    tree_bytes_total = geometry.node_bytes if geometry else 0

    mac_base = tree_base + tree_bytes_total
    mac_region = integ_scheme.mac_region_bytes(config, data)

    layout = PhysicalLayout(
        data_bytes=data,
        counter_base=counter_base,
        counter_bytes=counter_bytes,
        prd_base=prd_base,
        prd_bytes=prd_bytes,
        tree_base=tree_base,
        tree_bytes=tree_bytes_total,
        mac_base=mac_base,
        mac_bytes_region=mac_region,
    )
    return layout, geometry


# Swapped-page image format: 8-byte origin-frame header, 4096B of raw
# (still encrypted) page content, then the page's counter run — one 64B
# block for AISE-family and counter-free schemes, more for flat-counter
# schemes whose per-page counters span several blocks (global64: 8).
# These module-level constants describe the *single-counter-block* image
# (the AISE shape); a machine's actual image size is ``image_bytes`` /
# ``image_blocks`` on the instance, derived from its scheme descriptor.
IMAGE_HEADER = 8
IMAGE_BYTES = IMAGE_HEADER + PAGE_SIZE + BLOCK_SIZE
IMAGE_BLOCKS = round_to_blocks(IMAGE_BYTES) // BLOCK_SIZE


class SecureMemorySystem:
    """A functional secure processor plus its protected physical memory."""

    def __init__(
        self,
        config: MachineConfig | None = None,
        master_key: bytes = b"\x00" * 32,
        fast_crypto: bool = True,
        seed_audit=None,
    ):
        self.config = config or MachineConfig()
        self.enc_scheme = encryption_scheme(self.config.encryption)
        self.integ_scheme = integrity_scheme(self.config.integrity)
        self.layout, geometry = plan_layout(self.config)
        self.memory = BlockMemory(self.layout.total_bytes, name="physical")
        self.fast_crypto = fast_crypto

        # Swap image geometry for this machine's scheme (multi-block
        # counter runs make images larger than the module constants).
        self.image_counter_blocks = self.enc_scheme.image_counter_blocks
        self.image_bytes = IMAGE_HEADER + PAGE_SIZE + self.image_counter_blocks * BLOCK_SIZE
        self.image_blocks = round_to_blocks(self.image_bytes) // BLOCK_SIZE

        # Independent keys for encryption and authentication, derived from
        # the master key exactly like the hardware's key ladder would.
        import hashlib

        self.encryption_key = hashlib.blake2s(master_key, person=b"enc-key0").digest()
        self.mac_key = hashlib.blake2s(master_key, person=b"mac-key0").digest()

        self.gpc = GlobalPageCounter()
        self.mac_fn = make_mac(self.mac_key, self.config.mac_bits, fast=fast_crypto)

        # Engines, built by the scheme descriptors.
        self.integrity = self.integ_scheme.build_engine(self, geometry)
        self.tree = getattr(self.integrity, "tree", None)
        self.encryption = self.enc_scheme.build_engine(self, seed_audit=seed_audit)

        # Wire the engine's metadata path through the integrity scheme.
        self.encryption.metadata_verify = self.integrity.verify_metadata
        self.encryption.metadata_update = self.integrity.update_metadata
        self.encryption.verify_block = self.integrity.verify_data
        self.encryption.rewrite_block = self._rewrite_block

        # Page-root directory (swap protection), verified through the tree.
        swap_pages = (self.config.swap_bytes or self.layout.data_bytes) // PAGE_SIZE
        self.page_roots = PageRootDirectory(
            self.memory,
            self.layout.prd_base,
            swap_pages,
            self.config.mac_bytes,
            metadata_read=self._verified_metadata_read,
            metadata_write=self._verified_metadata_write,
        ) if self.layout.prd_bytes else None

        self.reads = 0
        self.writes = 0
        self._booted = False

    # -- boot --------------------------------------------------------------------

    @property
    def booted(self) -> bool:
        """Whether :meth:`boot` has built the integrity structures."""
        return self._booted

    def boot(self) -> None:
        """Build integrity structures over current memory (secure boot).

        Models the paper's steady-state assumption (section 3): the
        processor computes the Merkle tree — and, for MAC-carrying
        schemes, every per-block MAC — over the loaded memory image.
        """
        if self.tree is not None:
            self.tree.build()
        if self.integ_scheme.uses_data_macs:
            uses_counters = self.encryption.uses_counters
            for paddr in range(0, self.layout.data_bytes, BLOCK_SIZE):
                cipher = self.memory.read_block(paddr)
                tag = self.encryption.counter_tag(paddr) if uses_counters else 0
                self.integrity.update_data(paddr, cipher, tag)
        self._booted = True

    def reboot(self) -> None:
        """Power-cycle: volatile on-chip state is lost; the GPC (non-volatile,
        section 4.3) and the securely persisted root MAC survive."""
        self.encryption.clear_volatile()
        if self.tree is not None:
            self.tree.clear_volatile()

    # -- hibernation ------------------------------------------------------------------

    def hibernate(self) -> tuple[dict, dict]:
        """Power down completely. Returns ``(nonvolatile, memory_image)``.

        ``nonvolatile`` models the chip's NVRAM (section 4.3): the GPC
        and the sealed root MAC — small, trusted, tamper-free.
        ``memory_image`` is the DRAM contents written to disk — fully
        attacker-accessible while the machine sleeps. Resuming restores
        the root from NVRAM rather than recomputing it, so any tampering
        of the sleeping image is caught on first use.
        """
        if self.tree is not None:
            # A deferred tree's pending queue is volatile: flush it so the
            # persisted root covers what the sleeping image actually holds.
            self.tree.flush_pending()
        nonvolatile = {
            "gpc": self.gpc.save_state(),
            "root": self.tree.root.value if self.tree is not None else None,
            "tree_state": self.tree.persist_state() if self.tree is not None else None,
            "config": (self.config.encryption, self.config.integrity, self.config.mac_bits,
                       self.config.physical_bytes, self.config.swap_bytes),
        }
        memory_image = self.memory.snapshot_blocks()
        return nonvolatile, memory_image

    @classmethod
    def resume(
        cls,
        nonvolatile: dict,
        memory_image: dict,
        config: MachineConfig,
        master_key: bytes = b"\x00" * 32,
        fast_crypto: bool = True,
    ) -> "SecureMemorySystem":
        """Wake a hibernated machine from its NVRAM state + memory image."""
        fingerprint = (config.encryption, config.integrity, config.mac_bits,
                       config.physical_bytes, config.swap_bytes)
        if fingerprint != nonvolatile["config"]:
            raise ConfigurationError("resume configuration does not match hibernated machine")
        machine = cls(config, master_key=master_key, fast_crypto=fast_crypto)
        machine.memory.restore_blocks(memory_image)
        machine.gpc.restore_state(nonvolatile["gpc"])
        if machine.tree is not None:
            machine.tree.restore_root(nonvolatile["root"])
            # A lazy tree's materialization set is part of the sealed
            # state: without it a resumed tree would re-measure (and
            # silently bless) leaves tampered while powered down.
            machine.tree.restore_state(nonvolatile.get("tree_state"))
        machine._booted = True
        return machine

    # -- metadata plumbing ----------------------------------------------------------

    def _verified_metadata_read(self, address: int) -> bytes:
        raw = self.memory.read_block(address)
        self.integrity.verify_metadata(address, raw)
        return raw

    def _verified_metadata_write(self, address: int, raw: bytes) -> None:
        self.memory.write_block(address, raw)
        self.integrity.update_metadata(address, raw)

    def _rewrite_block(self, address: int, cipher: bytes, tag: int) -> None:
        """Engine hook used during page / whole-memory re-encryption."""
        self.memory.write_block(address, cipher)
        self.integrity.update_data(address, cipher, tag)

    # -- the block datapath -----------------------------------------------------------

    def read_block(self, paddr: int, ctx: AccessContext = NULL_CONTEXT) -> bytes:
        """Fetch, verify, and decrypt one 64B block of protected data."""
        if not self._booted:
            raise ConfigurationError("call boot() before accessing protected memory")
        if paddr % BLOCK_SIZE or not 0 <= paddr < self.layout.data_bytes:
            raise ValueError(f"invalid data block address {paddr:#x}")
        self.reads += 1
        cipher = self.memory.read_block(paddr)
        tag = self.encryption.counter_tag(paddr, ctx)
        self.integrity.verify_data(paddr, cipher, tag)
        return self.encryption.decrypt(paddr, cipher, ctx)

    def write_block(self, paddr: int, plain: bytes, ctx: AccessContext = NULL_CONTEXT) -> None:
        """Encrypt, store, and re-anchor one 64B block of protected data."""
        if not self._booted:
            raise ConfigurationError("call boot() before accessing protected memory")
        if paddr % BLOCK_SIZE or not 0 <= paddr < self.layout.data_bytes:
            raise ValueError(f"invalid data block address {paddr:#x}")
        self.writes += 1
        cipher, tag = self.encryption.encrypt_for_write(paddr, plain, ctx)
        self.memory.write_block(paddr, cipher)
        self.integrity.update_data(paddr, cipher, tag)

    # Byte-granular convenience (read-modify-write across blocks).

    def read_bytes(self, paddr: int, length: int, ctx: AccessContext = NULL_CONTEXT) -> bytes:
        """Byte-granular read spanning blocks (convenience wrapper)."""
        out = bytearray()
        cursor = paddr
        end = paddr + length
        while cursor < end:
            base = block_address(cursor)
            block = self.read_block(base, ctx)
            lo = cursor - base
            hi = min(BLOCK_SIZE, end - base)
            out.extend(block[lo:hi])
            cursor = base + hi
        return bytes(out)

    def write_bytes(self, paddr: int, data: bytes, ctx: AccessContext = NULL_CONTEXT) -> None:
        """Byte-granular write; partial blocks read-modify-write."""
        cursor = paddr
        offset = 0
        end = paddr + len(data)
        while cursor < end:
            base = block_address(cursor)
            lo = cursor - base
            hi = min(BLOCK_SIZE, end - base)
            if lo == 0 and hi == BLOCK_SIZE:
                block = data[offset : offset + BLOCK_SIZE]
            else:
                block = bytearray(self.read_block(base, ctx))
                block[lo:hi] = data[offset : offset + (hi - lo)]
                block = bytes(block)
            self.write_block(base, block, ctx)
            offset += hi - lo
            cursor = base + hi

    # -- page-granular primitives for the OS model ----------------------------------

    def export_page_image(self, frame_index: int) -> bytes:
        """Serialize a frame for swap-out: raw ciphertext + counter run.

        No decryption happens — for AISE this is the paper's point
        (section 4.4): the page and its counter block move to disk as-is.
        Flat-counter schemes export their page's whole counter run (which
        may span several blocks), so nothing is lost across the swap.
        """
        page_base = frame_index * PAGE_SIZE
        body = bytearray(page_base.to_bytes(IMAGE_HEADER, "big"))
        for block in range(BLOCKS_PER_PAGE):
            body.extend(self.memory.read_block(page_base + block * BLOCK_SIZE))
        body.extend(self.enc_scheme.export_counter_run(self, frame_index))
        body.extend(bytes(self.image_blocks * BLOCK_SIZE - len(body)))  # pad to blocks
        return bytes(body)

    def page_root_of_image(self, image: bytes) -> bytes:
        """The page-root MAC stored in the page root directory."""
        return self.mac_fn.compute(image + b"page-root")

    def install_page_image(self, frame_index: int, image: bytes) -> None:
        """Swap-in: place raw ciphertext + counters at a (possibly new) frame
        and re-anchor integrity metadata. Still no decryption for AISE."""
        page_base = frame_index * PAGE_SIZE
        offset = IMAGE_HEADER
        counter_lo = IMAGE_HEADER + PAGE_SIZE
        counter_raw = image[counter_lo : counter_lo + self.image_counter_blocks * BLOCK_SIZE]
        self.enc_scheme.install_counter_run(self, frame_index, counter_raw)
        if self.tree is not None:
            # A deferred tree must anchor the freshly installed counter
            # run before the page's data MACs can ever verify against it.
            run = self.enc_scheme.counter_run_range(self, frame_index)
            if run is not None:
                self.tree.flush_pending(run[0], run[1])
        for block in range(BLOCKS_PER_PAGE):
            paddr = page_base + block * BLOCK_SIZE
            cipher = image[offset : offset + BLOCK_SIZE]
            offset += BLOCK_SIZE
            self.memory.write_block(paddr, cipher)
            tag = self.encryption.counter_tag(paddr) if self.encryption.uses_counters else 0
            self.integrity.update_data(paddr, cipher, tag)

    def invalidate_page(self, frame_index: int) -> None:
        """Drop on-chip state for a frame being vacated (section 5.1 step 3)."""
        page_base = frame_index * PAGE_SIZE
        if self.tree is not None and self.tree.geometry.covers(page_base):
            self.tree.invalidate_covered_range(page_base, PAGE_SIZE)
        self.enc_scheme.drop_page_state(self, frame_index)

    @property
    def data_pages(self) -> int:
        return self.layout.data_bytes // PAGE_SIZE
