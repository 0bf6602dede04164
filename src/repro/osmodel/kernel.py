"""The OS kernel model: virtual memory, swapping, fork/COW, shared-memory IPC.

This is the substrate the paper's system-level arguments are about. The
kernel runs *outside* the trust boundary for data protection purposes —
it orchestrates page placement and DMA, but never needs plaintext or
keys. Under AISE:

* **page swap** moves raw ciphertext + the page's counter block to disk
  and back with no re-encryption (section 4.4);
* **shared memory / fork-COW / shared libraries** just work, because
  seeds are address-independent (section 4.5);
* swap integrity rides on the page-root directory (section 5.1).

The same kernel drives the baseline schemes so their documented failures
are reproducible: the physical-address scheme forces a decrypt+re-encrypt
of every swapped page (counted), and the virtual-address scheme returns
garbage through shared mappings (demonstrated in the test suite).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .. import obs
from ..core.encryption import AccessContext
from ..core.errors import PageFaultError
from ..core.machine import IMAGE_HEADER, SecureMemorySystem
from ..mem.layout import BLOCK_SIZE, BLOCKS_PER_PAGE, PAGE_SIZE
from .filesystem import FileStore
from .frames import FrameAllocator
from .pagetable import PageTableEntry
from .process import Process
from .swap import SwapDevice
from .tlb import TLB


@dataclass
class KernelStats:
    """Counters for the kernel's paging, swap, fork, and COW activity."""

    page_faults: int = 0
    demand_zero_fills: int = 0
    swap_ins: int = 0
    swap_outs: int = 0
    cow_breaks: int = 0
    forks: int = 0
    swap_reencrypted_blocks: int = 0  # phys-addr scheme's extra work


class DiskCipher:
    """Software page encryption for the physical-address baseline's swap.

    The paper (section 4.2): with physical-address seeds, a page headed to
    disk must be decrypted (counter mode, old address) and re-encrypted
    (direct mode) — this is that second mode, keyed separately and made
    temporally unique with a per-swap-out generation nonce.
    """

    def __init__(self, key: bytes):
        self.key = bytes(key)
        self._generation = 0
        # Keyed once; each pad copies the state (same digest as re-keying).
        self._keyed = hashlib.blake2s(key=self.key[:32], digest_size=BLOCK_SIZE // 2)

    def next_generation(self) -> int:
        self._generation += 1
        return self._generation

    def _pad(self, generation: int, block: int) -> bytes:
        state = self._keyed.copy()
        state.update(generation.to_bytes(8, "big") + block.to_bytes(8, "big"))
        return state.digest() * 2

    def apply(self, data: bytes, generation: int, block: int) -> bytes:
        pad = self._pad(generation, block)
        return bytes(a ^ b for a, b in zip(data, pad))


class Kernel:
    """Virtual-memory kernel over one :class:`SecureMemorySystem`."""

    def __init__(
        self,
        machine: SecureMemorySystem,
        swap_slots: int | None = None,
        tlb_entries: int = 64,
        reuse_pids: bool = True,
    ):
        self.machine = machine
        self.frames = FrameAllocator(machine.data_pages)
        if swap_slots is None:
            swap_slots = (machine.config.swap_bytes or machine.layout.data_bytes) // PAGE_SIZE
        self.swap = SwapDevice(swap_slots, slot_blocks=machine.image_blocks)
        self.tlb = TLB(tlb_entries)
        self.reuse_pids = reuse_pids
        self.processes: dict[int, Process] = {}
        self._free_pids: list[int] = []
        self._next_pid = 1
        self._shared_segments: dict[str, list[int]] = {}  # name -> frames
        self.files = FileStore()
        self._file_frames: dict[str, list[int]] = {}  # name -> resident page cache
        self._disk_cipher = DiskCipher(hashlib.blake2s(machine.mac_key, person=b"diskkey0").digest())
        self._slot_generation: dict[int, int] = {}
        self.stats = KernelStats()
        if not machine.booted:
            machine.boot()

    # -- process lifecycle ----------------------------------------------------

    def _allocate_pid(self) -> int:
        if self.reuse_pids and self._free_pids:
            return self._free_pids.pop()
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def create_process(self, name: str = "") -> Process:
        """Spawn a process with an empty address space."""
        pid = self._allocate_pid()
        process = Process(pid=pid, name=name or f"proc{pid}")
        self.processes[pid] = process
        return process

    def exit_process(self, pid: int) -> None:
        """Tear down a process, releasing frames, swap slots, and its PID."""
        process = self.processes.pop(pid)
        process.alive = False
        for pte in process.page_table.entries():
            self._drop_mapping(pid, pte)
        if self.reuse_pids:
            self._free_pids.append(pid)

    def _drop_mapping(self, pid: int, pte: PageTableEntry) -> None:
        if pte.present:
            frame = pte.frame
            self.frames.detach(frame, pid, pte.vpage)
            self.tlb.invalidate(pid, pte.vpage)
            info = self.frames.info(frame)
            # Pinned frames back a named shared segment, which persists
            # until shm_unlink even with no attachers (SysV semantics).
            if not info.mappers and not info.pinned:
                self.frames.release(frame)
                self.machine.invalidate_page(frame)
        elif pte.swap_slot is not None:
            self.swap.release_slot(pte.swap_slot)

    # -- mapping --------------------------------------------------------------

    def mmap(self, pid: int, vaddr: int, npages: int, shared_name: str | None = None) -> None:
        """Map ``npages`` at page-aligned ``vaddr``: anonymous demand-zero
        pages, or an attachment of a named shared segment (mmap-style IPC)."""
        if vaddr % PAGE_SIZE:
            raise ValueError("mmap address must be page-aligned")
        process = self.processes[pid]
        vpage = vaddr // PAGE_SIZE
        if shared_name is None:
            for i in range(npages):
                process.page_table.map(vpage + i)
            return
        frames = self._shared_segments.get(shared_name)
        if frames is None:
            raise KeyError(f"no shared segment named {shared_name!r}")
        if len(frames) != npages:
            raise ValueError(f"segment {shared_name!r} has {len(frames)} pages, not {npages}")
        for i, frame in enumerate(frames):
            pte = process.page_table.map(vpage + i, frame=frame, shared=True)
            self.frames.attach(frame, pid, pte.vpage)
        process.shared_segments[shared_name] = vpage

    def munmap(self, pid: int, vaddr: int, npages: int) -> None:
        """Remove ``npages`` of mappings at page-aligned ``vaddr``.

        Private pages release their frames (or swap slots); shared
        attachments merely detach (the segment persists until unlinked).
        """
        if vaddr % PAGE_SIZE:
            raise ValueError("munmap address must be page-aligned")
        process = self.processes[pid]
        vpage = vaddr // PAGE_SIZE
        for i in range(npages):
            if not process.page_table.is_mapped(vpage + i):
                raise PageFaultError(f"pid {pid}: munmap of unmapped page {vpage + i:#x}")
        for i in range(npages):
            pte = process.page_table.unmap(vpage + i)
            self._drop_mapping(pid, pte)

    # -- file-backed mmap (glibc-style file I/O and shared libraries) --------

    @staticmethod
    def _file_mapper(name: str, page: int):
        """Synthetic mapper entry pinning file-cache frames in the reverse
        map; also keeps private (COW) mappings from un-sharing the cache
        frame when they are the last process mapper."""
        return (f"file:{name}", page)

    def _ensure_file_resident(self, name: str) -> list[int]:
        """Load a file's pages into (protected) memory once, like a page
        cache; every mapping — shared or private — uses these frames."""
        frames = self._file_frames.get(name)
        if frames is not None:
            return frames
        frames = []
        for page in range(max(1, self.files.pages(name))):
            frame = self._get_frame()
            content = self.files.read_page(name, page)
            base = frame * PAGE_SIZE
            for block in range(BLOCKS_PER_PAGE):
                self.machine.write_block(
                    base + block * BLOCK_SIZE,
                    content[block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE],
                    AccessContext(),
                )
            self.frames.pin(frame)
            self.frames.attach(frame, *self._file_mapper(name, page))
            frames.append(frame)
        self._file_frames[name] = frames
        return frames

    def mmap_file(self, pid: int, vaddr: int, name: str, shared: bool = True) -> int:
        """Map a file at page-aligned ``vaddr``; returns pages mapped.

        ``shared=True`` is MAP_SHARED (writes visible to every mapper and
        flushable with :meth:`msync`); ``shared=False`` is MAP_PRIVATE —
        the shared-library case — where the first write copies the page
        (COW) and the file stays pristine.
        """
        if vaddr % PAGE_SIZE:
            raise ValueError("mmap address must be page-aligned")
        process = self.processes[pid]
        frames = self._ensure_file_resident(name)
        vpage = vaddr // PAGE_SIZE
        for i, frame in enumerate(frames):
            if shared:
                pte = process.page_table.map(vpage + i, frame=frame, shared=True)
            else:
                pte = process.page_table.map(vpage + i, frame=frame, shared=False,
                                             cow=True, writable=False)
            self.frames.attach(frame, pid, pte.vpage)
        return len(frames)

    def msync(self, name: str) -> None:
        """Flush a file's resident (shared-mapping) pages back to disk."""
        frames = self._file_frames.get(name)
        if frames is None:
            return
        for page, frame in enumerate(frames):
            base = frame * PAGE_SIZE
            content = b"".join(
                self.machine.read_block(base + block * BLOCK_SIZE)
                for block in range(BLOCKS_PER_PAGE)
            )
            self.files.write_page(name, page, content)

    def drop_file_cache(self, name: str) -> None:
        """Evict a file's resident pages (all process mappings must be gone)."""
        frames = self._file_frames[name]
        for page, frame in enumerate(frames):
            info = self.frames.info(frame)
            others = info.mappers - {self._file_mapper(name, page)}
            if others:
                raise ValueError(f"file {name!r} still mapped by {others}")
            self.frames.detach(frame, *self._file_mapper(name, page))
            self.frames.unpin(frame)
            self.frames.release(frame)
            self.machine.invalidate_page(frame)
        del self._file_frames[name]

    def shm_create(self, name: str, npages: int) -> None:
        """Create a named shared-memory segment (pinned, zero-filled)."""
        if name in self._shared_segments:
            raise ValueError(f"segment {name!r} already exists")
        frames = []
        for _ in range(npages):
            frame = self._get_frame()
            self._zero_fill(frame, owner_ctx=AccessContext())
            self.frames.pin(frame)
            frames.append(frame)
        self._shared_segments[name] = frames

    def shm_unlink(self, name: str) -> None:
        """Destroy a (fully detached) named shared segment."""
        frames = self._shared_segments[name]
        for frame in frames:
            if self.frames.info(frame).mappers:
                raise ValueError(f"segment {name!r} still attached")
        del self._shared_segments[name]
        for frame in frames:
            self.frames.unpin(frame)
            self.frames.release(frame)
            self.machine.invalidate_page(frame)

    # -- fork / copy-on-write ----------------------------------------------------

    def fork(self, parent_pid: int) -> Process:
        """Clone a process, sharing frames copy-on-write (section 4.2)."""
        parent = self.processes[parent_pid]
        child = self.create_process(name=f"{parent.name}-child")
        child.parent_pid = parent_pid
        self.stats.forks += 1
        for pte in parent.page_table.entries():
            if pte.swap_slot is not None:
                # Simplification: fault swapped pages back before sharing.
                self._fault_in(parent_pid, pte)
            if not pte.present:
                child.page_table.map(pte.vpage)
                continue
            if pte.shared:
                new = child.page_table.map(pte.vpage, frame=pte.frame, shared=True)
                self.frames.attach(pte.frame, child.pid, new.vpage)
                continue
            pte.cow = True
            pte.writable = False
            new = child.page_table.map(pte.vpage, frame=pte.frame, cow=True, writable=False)
            self.frames.attach(pte.frame, child.pid, new.vpage)
        child.shared_segments = dict(parent.shared_segments)
        return child

    def _break_cow(self, pid: int, pte: PageTableEntry) -> None:
        info = self.frames.info(pte.frame)
        if len(info.mappers) == 1:
            pte.cow = False
            pte.writable = True
            return
        self.stats.cow_breaks += 1
        old_frame = pte.frame
        new_frame = self._get_frame()
        # Copy through the secure processor: decrypt from the shared frame,
        # re-encrypt into the private one. The access context is the
        # faulting process's — under AISE it is irrelevant; under the
        # virtual-address baseline this copy is exactly where sharing
        # breaks down (the test suite demonstrates the garbage).
        for block in range(BLOCKS_PER_PAGE):
            vaddr = pte.vpage * PAGE_SIZE + block * BLOCK_SIZE
            ctx = AccessContext(vaddr=vaddr, pid=pid)
            plain = self.machine.read_block(old_frame * PAGE_SIZE + block * BLOCK_SIZE, ctx)
            self.machine.write_block(new_frame * PAGE_SIZE + block * BLOCK_SIZE, plain, ctx)
        self.frames.detach(old_frame, pid, pte.vpage)
        self.frames.attach(new_frame, pid, pte.vpage)
        self.tlb.invalidate(pid, pte.vpage)
        pte.frame = new_frame
        pte.cow = False
        pte.writable = True

    # -- frame management and swapping ----------------------------------------------

    def _get_frame(self) -> int:
        frame = self.frames.allocate()
        while frame is None:
            victim = self.frames.pick_victim()
            if victim is None:
                raise MemoryError("out of physical frames and nothing evictable")
            self._swap_out(victim.index)
            frame = self.frames.allocate()
        return frame

    def _zero_fill(self, frame: int, owner_ctx: AccessContext) -> None:
        base = frame * PAGE_SIZE
        zero = bytes(BLOCK_SIZE)
        for block in range(BLOCKS_PER_PAGE):
            ctx = AccessContext(vaddr=owner_ctx.vaddr + block * BLOCK_SIZE, pid=owner_ctx.pid)
            self.machine.write_block(base + block * BLOCK_SIZE, zero, ctx)
        self.stats.demand_zero_fills += 1

    def _swap_out(self, frame: int) -> None:
        info = self.frames.info(frame)
        (pid, vpage), = info.mappers  # victims are never shared
        pte = self.processes[pid].page_table.entry(vpage)
        slot = self.swap.allocate_slot()
        if self.machine.enc_scheme.reencrypt_on_swap:
            image = self._export_phys_reencrypted(frame, pid, vpage, slot)
        else:
            image = self.machine.export_page_image(frame)
        if self.machine.page_roots is not None:
            root = self.machine.page_root_of_image(image)
            self.machine.page_roots.install(slot, root)
        self.swap.dma_write(slot, image)
        self.machine.invalidate_page(frame)
        self.frames.detach(frame, pid, vpage)
        self.frames.release(frame)
        self.tlb.invalidate(pid, vpage)
        pte.frame = None
        pte.swap_slot = slot
        self.stats.swap_outs += 1
        obs.emit("swap_out", pid=pid, vpage=vpage, frame=frame, slot=slot)

    def _fault_in(self, pid: int, pte: PageTableEntry) -> None:
        self.stats.page_faults += 1
        if pte.swap_slot is None:
            # Demand-zero: first touch of an anonymous page.
            frame = self._get_frame()
            ctx = AccessContext(vaddr=pte.vpage * PAGE_SIZE, pid=pid)
            self._zero_fill(frame, ctx)
            pte.frame = frame
            self.frames.attach(frame, pid, pte.vpage)
            return
        slot = pte.swap_slot
        image = self.swap.dma_read(slot)
        if self.machine.page_roots is not None:
            self.machine.page_roots.verify_page_image(
                slot, self.machine.page_root_of_image(image)
            )
        frame = self._get_frame()
        if self.machine.enc_scheme.reencrypt_on_swap:
            self._install_phys_reencrypted(frame, image, pid, pte.vpage, slot)
        else:
            self.machine.install_page_image(frame, image)
        self.swap.release_slot(slot)
        pte.frame = frame
        pte.swap_slot = None
        self.frames.attach(frame, pid, pte.vpage)
        self.stats.swap_ins += 1
        obs.emit("swap_in", pid=pid, vpage=pte.vpage, frame=frame, slot=slot)

    # Physical-address baseline: the mandatory re-encryption on both swap
    # directions (decrypt with old physical address, direct-encrypt for
    # disk; and the reverse on the way in).

    def _export_phys_reencrypted(self, frame: int, pid: int, vpage: int, slot: int) -> bytes:
        generation = self._disk_cipher.next_generation()
        self._slot_generation[slot] = generation
        base = frame * PAGE_SIZE
        body = bytearray(generation.to_bytes(IMAGE_HEADER, "big"))
        for block in range(BLOCKS_PER_PAGE):
            ctx = AccessContext(vaddr=vpage * PAGE_SIZE + block * BLOCK_SIZE, pid=pid)
            plain = self.machine.read_block(base + block * BLOCK_SIZE, ctx)
            body.extend(self._disk_cipher.apply(plain, generation, block))
            self.stats.swap_reencrypted_blocks += 1
        body.extend(bytes(self.machine.image_blocks * BLOCK_SIZE - len(body)))
        return bytes(body)

    def _install_phys_reencrypted(
        self, frame: int, image: bytes, pid: int, vpage: int, slot: int
    ) -> None:
        generation = int.from_bytes(image[:IMAGE_HEADER], "big")
        base = frame * PAGE_SIZE
        offset = IMAGE_HEADER
        for block in range(BLOCKS_PER_PAGE):
            disk_block = image[offset : offset + BLOCK_SIZE]
            offset += BLOCK_SIZE
            # The generation stamp comes from the image header, which is
            # covered by the page-root check in swap_in before install;
            # and decrypting with a replayed generation cannot reuse a
            # pad on any *new* encryption (export always draws a fresh
            # next_generation()).
            plain = self._disk_cipher.apply(disk_block, generation, block)  # repro: allow(FLOW002)
            ctx = AccessContext(vaddr=vpage * PAGE_SIZE + block * BLOCK_SIZE, pid=pid)
            self.machine.write_block(base + block * BLOCK_SIZE, plain, ctx)
            self.stats.swap_reencrypted_blocks += 1

    # -- virtual memory access ---------------------------------------------------

    def _resolve(self, pid: int, vaddr: int, for_write: bool) -> int:
        """Translate one address, handling faults and COW. Returns paddr."""
        process = self.processes[pid]
        vpage = vaddr // PAGE_SIZE
        pte = process.page_table.entry(vpage)
        if not pte.present:
            self.tlb.invalidate(pid, vpage)
            self._fault_in(pid, pte)
        if for_write and pte.cow:
            self._break_cow(pid, pte)
        if for_write and not pte.writable:
            raise PageFaultError(f"pid {pid}: write to read-only page {vpage:#x}")
        if self.tlb.lookup(pid, vpage) is None:
            self.tlb.fill(pid, vpage, pte.frame)
        return pte.frame * PAGE_SIZE + (vaddr % PAGE_SIZE)

    def write(self, pid: int, vaddr: int, data: bytes) -> None:
        """Write through the secure processor at a virtual address."""
        offset = 0
        while offset < len(data):
            cursor = vaddr + offset
            block_vaddr = cursor & ~(BLOCK_SIZE - 1)
            lo = cursor - block_vaddr
            take = min(BLOCK_SIZE - lo, len(data) - offset)
            paddr = self._resolve(pid, cursor, for_write=True)
            ctx = AccessContext(vaddr=block_vaddr, pid=pid)
            block_paddr = paddr & ~(BLOCK_SIZE - 1)
            if lo == 0 and take == BLOCK_SIZE:
                block = data[offset : offset + BLOCK_SIZE]
            else:
                block = bytearray(self.machine.read_block(block_paddr, ctx))
                block[lo : lo + take] = data[offset : offset + take]
                block = bytes(block)
            self.machine.write_block(block_paddr, block, ctx)
            offset += take

    def read(self, pid: int, vaddr: int, length: int) -> bytes:
        """Read through the secure processor at a virtual address."""
        out = bytearray()
        offset = 0
        while offset < length:
            cursor = vaddr + offset
            block_vaddr = cursor & ~(BLOCK_SIZE - 1)
            lo = cursor - block_vaddr
            take = min(BLOCK_SIZE - lo, length - offset)
            paddr = self._resolve(pid, cursor, for_write=False)
            ctx = AccessContext(vaddr=block_vaddr, pid=pid)
            block = self.machine.read_block(paddr & ~(BLOCK_SIZE - 1), ctx)
            out.extend(block[lo : lo + take])
            offset += take
        return bytes(out)
