"""The functional golden: one seeded OS workload, digested byte for byte.

The figure-6 golden (``golden/figure6-events30000.json``) pins the timing
model; this one pins the functional machine. :func:`run` drives one
seeded :class:`~repro.api.Kernel` workload on a small machine — demand
fills, swap out and in, fork with copy-on-write breaks, shared-memory
IPC, and a hibernate/resume in the middle — and returns, per preset:

* ``dram`` — SHA-256 over the final DRAM image (every populated block,
  in address order), covering data, counters, tree nodes and MACs;
* ``swap`` — SHA-256 over the swap device's image (pages still out);
* ``root`` — SHA-256 of the root register (``null`` without a tree);
* ``access_log`` — SHA-256 over the processor's DRAM access stream as
  :class:`~repro.api.AccessRecorder` records it, before and after the
  hibernation, in order;
* ``stats`` — engine statistics for each half of the run: tree
  ``trusted_hits`` and ``node_fetches``, ``pads_generated``, and the
  kernel's paging counters. The numbers are kept as numbers (not a
  digest) so a mismatch reads as the statistic that moved;
* ``pad_cache`` — the keystream pad memo's hits and misses per half,
  with :mod:`repro.fastpath` on (the memo does not exist with it off).

Every other field must be identical with the fastpath gate on or off;
``tests/test_functional_golden.py`` checks both against the committed
``golden/functional-kernel.json``.

Run ``python benchmarks/functional_golden.py --check`` to compare, or
``--write`` to regenerate (only for a change that is *meant* to move
functional bytes; say so in CHANGES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "functional-kernel.json"
# Four tree presets, plus the physical-address baseline: its swap path
# decrypts and re-encrypts every page through the kernel's disk cipher.
PRESETS = ("aise+bmt", "aise+bmt_lazy", "aise+mt", "global64+mt", "phys_addr+bmt")
SEED = 2007

PAGE = 4096
BLOCK = 64
FRAMES = 12
SWAP_SLOTS = 48
MAIN_PAGES = 20
SHELL_PAGES = 3
RING_PAGES = 2
ACCESSES = 48
MAIN_BASE = 0x100000
SHELL_BASE = 0x400000
PRODUCER_BASE = 0x800000
CONSUMER_BASE = 0x900000


def _sha(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class _Run:
    """One preset's workload: the kernel, its processes and a shadow copy
    of every byte written, against which every read is checked."""

    def __init__(self, preset: str):
        from repro.api import AccessRecorder, Kernel, build_machine

        self.rng = random.Random(SEED)
        self.machine = build_machine(preset, physical_bytes=FRAMES * PAGE,
                                     swap_bytes=SWAP_SLOTS * PAGE)
        self.kernel = Kernel(self.machine, swap_slots=SWAP_SLOTS)
        self.recorder = AccessRecorder(self.machine)
        self.recorder.start()
        self.shadow: dict[tuple[int, int], bytearray] = {}
        kernel = self.kernel
        self.main = kernel.create_process("main").pid
        self.shell = kernel.create_process("shell").pid
        self.producer = kernel.create_process("producer").pid
        self.consumer = kernel.create_process("consumer").pid
        kernel.mmap(self.main, MAIN_BASE, MAIN_PAGES)
        kernel.mmap(self.shell, SHELL_BASE, SHELL_PAGES)
        kernel.shm_create("ring", RING_PAGES)
        kernel.mmap(self.producer, PRODUCER_BASE, RING_PAGES, shared_name="ring")
        kernel.mmap(self.consumer, CONSUMER_BASE, RING_PAGES, shared_name="ring")

    # -- shadowed access ------------------------------------------------------

    def _page(self, pid: int, vaddr: int) -> bytearray:
        key = (pid, vaddr // PAGE)
        if key not in self.shadow:
            self.shadow[key] = bytearray(PAGE)
        return self.shadow[key]

    def write(self, pid: int, vaddr: int, data: bytes) -> None:
        self.kernel.write(pid, vaddr, data)
        at = vaddr % PAGE
        self._page(pid, vaddr)[at:at + len(data)] = data

    def read(self, pid: int, vaddr: int, length: int, shadow_pid: int | None = None) -> None:
        got = self.kernel.read(pid, vaddr, length)
        at = vaddr % PAGE
        want = bytes(self._page(pid if shadow_pid is None else shadow_pid, vaddr)[at:at + length])
        if got != want:
            raise AssertionError(f"pid {pid} read {vaddr:#x}: bytes differ from the shadow copy")

    # -- the slices -----------------------------------------------------------

    def fill(self) -> None:
        """Touch every page once; the main process overflows the frames."""
        rng = self.rng
        for page in range(MAIN_PAGES):
            self.write(self.main, MAIN_BASE + page * PAGE, rng.randbytes(BLOCK))
        for page in range(SHELL_PAGES):
            self.write(self.shell, SHELL_BASE + page * PAGE, rng.randbytes(BLOCK))

    def accesses(self) -> None:
        """Seeded block reads and writes (40% writes) across every main
        page, so swapped-out pages fault back in and evict others."""
        rng = self.rng
        for _ in range(ACCESSES):
            vaddr = MAIN_BASE + rng.randrange(MAIN_PAGES) * PAGE + rng.randrange(PAGE // BLOCK) * BLOCK
            if rng.random() < 0.4:
                self.write(self.main, vaddr, rng.randbytes(BLOCK))
            else:
                self.read(self.main, vaddr, BLOCK)

    def fork(self) -> None:
        """Fork the shell; the child reads, breaks COW on two pages and exits."""
        rng = self.rng
        kernel = self.kernel
        child = kernel.fork(self.shell).pid
        for page in range(SHELL_PAGES):
            self.read(child, SHELL_BASE + page * PAGE, BLOCK, shadow_pid=self.shell)
        for page in rng.sample(range(SHELL_PAGES), 2):
            vaddr = SHELL_BASE + page * PAGE + rng.randrange(PAGE // BLOCK) * BLOCK
            data = rng.randbytes(BLOCK)
            kernel.write(child, vaddr, data)
            if kernel.read(child, vaddr, BLOCK) != data:
                raise AssertionError("COW child lost its own write")
            self.read(self.shell, vaddr, BLOCK)
        kernel.exit_process(child)

    def ipc(self) -> None:
        """A producer writes a message; a consumer reads it at another address."""
        rng = self.rng
        offset = rng.randrange(RING_PAGES * PAGE - 200)
        message = rng.randbytes(200)
        self.kernel.write(self.producer, PRODUCER_BASE + offset, message)
        if self.kernel.read(self.consumer, CONSUMER_BASE + offset, 200) != message:
            raise AssertionError("consumer did not see the producer's message")

    def hibernate(self) -> list:
        """Power down and resume; the kernel (and its swap) carries on."""
        from repro.api import AccessRecorder, SecureMemorySystem

        machine = self.machine
        nonvolatile, image = machine.hibernate()
        self.recorder.stop()
        events = self.recorder.raw_events
        resumed = SecureMemorySystem.resume(nonvolatile, image, machine.config)
        self.kernel.machine = resumed
        self.machine = resumed
        self.recorder = AccessRecorder(resumed)
        self.recorder.start()
        return events

    # -- digests --------------------------------------------------------------

    def stats(self) -> dict:
        machine = self.machine
        tree = machine.tree
        kernel = self.kernel.stats
        return {
            "trusted_hits": tree.trusted_hits if tree is not None else 0,
            "node_fetches": tree.node_fetches if tree is not None else 0,
            "pads_generated": machine.encryption.pads_generated,
            "page_faults": kernel.page_faults,
            "swap_ins": kernel.swap_ins,
            "swap_outs": kernel.swap_outs,
            "cow_breaks": kernel.cow_breaks,
            "swap_reencrypted_blocks": kernel.swap_reencrypted_blocks,
        }

    def pad_cache(self):
        cache = self.machine.encryption.pad_cache
        return None if cache is None else {"hits": cache.hits, "misses": cache.misses}


def _log_chunks(events):
    for op, address in events:
        yield op.encode() + address.to_bytes(8, "big")


def run(preset: str) -> dict:
    """Drive the workload on ``preset`` and return its digests."""
    work = _Run(preset)
    work.fill()
    work.accesses()
    work.fork()
    work.ipc()
    stats = [work.stats()]
    pad_cache = [work.pad_cache()]
    events = work.hibernate()
    work.accesses()
    work.fork()
    work.ipc()
    work.recorder.stop()
    events += work.recorder.raw_events
    stats.append(work.stats())
    pad_cache.append(work.pad_cache())
    machine = work.machine
    snapshot = machine.memory.snapshot_blocks()
    swap = work.kernel.swap.storage.snapshot_blocks()
    root = machine.tree.root.value if machine.tree is not None else None
    return {
        "dram": _sha(address.to_bytes(8, "big") + snapshot[address] for address in sorted(snapshot)),
        "swap": _sha(address.to_bytes(8, "big") + swap[address] for address in sorted(swap)),
        "root": None if root is None else _sha([root]),
        "access_log": _sha(_log_chunks(events)),
        "accesses": len(events),
        "stats": stats,
        "pad_cache": pad_cache,
    }


def run_all() -> dict:
    return {preset: run(preset) for preset in PRESETS}


def differences(got: dict, want: dict) -> list[str]:
    """``preset.field`` names where ``got`` differs from ``want``.

    With the fastpath gate off there is no pad memo: ``pad_cache`` must
    then be absent in both halves rather than equal to the golden's."""
    from repro import fastpath

    out = []
    for preset in PRESETS:
        expected = want.get(preset, {})
        for field, value in got[preset].items():
            if field == "pad_cache" and not fastpath.enabled():
                if value != [None, None]:
                    out.append(f"{preset}.{field}")
            elif value != expected.get(field):
                out.append(f"{preset}.{field}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the committed golden")
    mode.add_argument("--write", action="store_true", help="regenerate the committed golden")
    args = parser.parse_args(argv)
    got = run_all()
    if args.write:
        GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    bad = differences(got, json.loads(GOLDEN.read_text()))
    for name in bad:
        print(f"{name}: differs from {GOLDEN.name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
