"""``secure_os``: processes running on an AISE+BMT machine under an OS.

One op is one scheduler slice through one ``Kernel`` over a booted
``aise+bmt`` functional machine (64 frames, 256 swap slots). Closed
loop, one process at a time. The seed generates every access, every
written byte and the order of slices.

* *Access slices* (36 of every 40): the main process makes 32 block
  reads and writes (30% writes). Its hot set is a 16-page segment,
  pinned in the frames like a buffer pool; its cold tail of 112 private
  pages does not fit in the remaining frames. Resident slices (24 of 40)
  touch only the hot set. Faulting slices (12 of 40) also touch one
  swapped-out cold page, so each takes exactly one swap-in and one
  swap-out (FIFO replacement among unpinned frames).
* *Fork slices* (1 in 40): a small shell process forks; the child reads
  the shared pages, writes two of them (copy-on-write breaks), reads
  back, the parent is re-read, and the child exits.
* *IPC slices* (2 in 40): a producer writes a message into a shared
  segment; a consumer mapping it at another address reads it.
* *Tamper probes* (1 in 40): ``SwapDevice.corrupt_slot`` on one of the
  main process's swapped-out cold pages, then a read of that page,
  which must raise ``IntegrityError``. Off the clock, the page is then
  unmapped, mapped afresh and its shadow contents written back, so it
  takes a frame again (evicting the oldest unpinned page to swap) and
  the number of cold pages on swap stays the same all run long. Every
  round therefore runs the mix above, however many rounds a run takes.

Checked: every read equals the process's shadow copy, and every tamper
probe raises ``IntegrityError``.
"""

from __future__ import annotations

import random
import time

from perfbench.harness import Op, Workload

PAGE = 4096
BLOCK = 64
FRAMES = 64
SWAP_SLOTS = 256
SLICE_ACCESSES = 32
WRITE_SHARE = 0.3
HOT_PAGES = 16
COLD_PAGES = 112
SHELL_PAGES = 4
RING_PAGES = 2
MESSAGE = 256
MAIN_BASE = 0x100000
SHELL_BASE = 0x400000
PRODUCER_BASE = 0x800000
CONSUMER_BASE = 0x900000
COLD_BASE = MAIN_BASE + HOT_PAGES * PAGE
# p50 falls in the resident slices, p90 in the faulting ones.
SLICES = (("resident", 24), ("faulting", 12), ("ipc", 2), ("tamper", 1), ("fork", 1))


class SecureOS(Workload):
    name = "secure_os"
    round_steps = sum(count for _kind, count in SLICES)
    # Every block access crosses several traced layers: bound the spans.
    trace_cap_steps = 38 * round_steps

    def setup(self, seed: int, gap) -> dict:
        from repro.api import IntegrityError, Kernel, build_machine

        rng = random.Random(seed ^ 0x5EED)
        machine = build_machine("aise+bmt", physical_bytes=FRAMES * PAGE,
                                swap_bytes=SWAP_SLOTS * PAGE)
        kernel = Kernel(machine, swap_slots=SWAP_SLOTS)
        main = kernel.create_process("main")
        shell = kernel.create_process("shell")
        producer = kernel.create_process("producer")
        consumer = kernel.create_process("consumer")
        kernel.shm_create("hot", HOT_PAGES)
        kernel.mmap(main.pid, MAIN_BASE, HOT_PAGES, shared_name="hot")
        kernel.mmap(main.pid, COLD_BASE, COLD_PAGES)
        kernel.mmap(shell.pid, SHELL_BASE, SHELL_PAGES)
        kernel.shm_create("ring", RING_PAGES)
        kernel.mmap(producer.pid, PRODUCER_BASE, RING_PAGES, shared_name="ring")
        kernel.mmap(consumer.pid, CONSUMER_BASE, RING_PAGES, shared_name="ring")
        ctx = {"kernel": kernel, "IntegrityError": IntegrityError,
               "main": main.pid, "shell": shell.pid,
               "producer": producer.pid, "consumer": consumer.pid,
               "shadow": {},
               "accesses": 0, "probes": 0, "detected": 0}
        gap()
        # Touch every page once, so the cold tail starts out on swap.
        for page in range(HOT_PAGES + COLD_PAGES):
            self._write(ctx, main.pid, MAIN_BASE, page * PAGE, rng.randbytes(BLOCK))
            if page % HOT_PAGES == HOT_PAGES - 1:
                gap()
        for page in range(SHELL_PAGES):
            self._write(ctx, shell.pid, SHELL_BASE, page * PAGE, rng.randbytes(BLOCK))
        return ctx

    # -- shadow bookkeeping -----------------------------------------------------

    @staticmethod
    def _shadow(ctx, pid: int, base: int, offset: int) -> bytearray:
        page = ctx["shadow"].get((pid, base, offset // PAGE))
        if page is None:
            page = ctx["shadow"][(pid, base, offset // PAGE)] = bytearray(PAGE)
        return page

    def _write(self, ctx, pid: int, base: int, offset: int, data: bytes) -> None:
        ctx["kernel"].write(pid, base + offset, data)
        at = offset % PAGE
        self._shadow(ctx, pid, base, offset)[at:at + len(data)] = data

    def _expected(self, ctx, pid: int, base: int, offset: int, length: int) -> bytes:
        at = offset % PAGE
        return bytes(self._shadow(ctx, pid, base, offset)[at:at + length])

    # -- the slices ---------------------------------------------------------------

    def steps(self, ctx, seed: int):
        rng = random.Random(seed)
        main = ctx["kernel"].processes[ctx["main"]]

        def swapped_cold_page():
            """A seeded choice among the cold pages now on swap."""
            pages = [page for page in range(HOT_PAGES, HOT_PAGES + COLD_PAGES)
                     if main.page_table.lookup(MAIN_BASE + page * PAGE).swap_slot
                     is not None]
            if not pages:
                raise RuntimeError("no cold page on swap: the slice mix cannot hold")
            return rng.choice(pages)

        def block_offset(page: int) -> int:
            return page * PAGE + rng.randrange(PAGE // BLOCK) * BLOCK

        while True:
            kinds = [kind for kind, count in SLICES for _ in range(count)]
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "tamper":
                    page = swapped_cold_page()
                    slot = main.page_table.lookup(MAIN_BASE + page * PAGE).swap_slot
                    yield ("tamper", page, slot, rng.randrange(PAGE))
                elif kind in ("resident", "faulting"):
                    accesses = []
                    for _ in range(SLICE_ACCESSES):
                        data = rng.randbytes(BLOCK) if rng.random() < WRITE_SHARE else None
                        accesses.append((block_offset(rng.randrange(HOT_PAGES)), data))
                    if kind == "faulting":
                        at = rng.randrange(SLICE_ACCESSES)
                        accesses[at] = (block_offset(swapped_cold_page()), accesses[at][1])
                    yield (kind, accesses)
                elif kind == "fork":
                    writes = [(block_offset(page), rng.randbytes(BLOCK))
                              for page in rng.sample(range(SHELL_PAGES), 2)]
                    yield ("fork", writes)
                else:
                    offset = rng.randrange(RING_PAGES * PAGE - MESSAGE)
                    yield ("ipc", offset, rng.randbytes(MESSAGE))

    def run_step(self, ctx, spec, gap) -> list:
        kernel = ctx["kernel"]
        kind = spec[0]
        result = []
        start = time.perf_counter()
        try:
            if kind in ("resident", "faulting"):
                pid = ctx["main"]
                for offset, data in spec[1]:
                    if data is None:
                        result.append(kernel.read(pid, MAIN_BASE + offset, BLOCK))
                    else:
                        kernel.write(pid, MAIN_BASE + offset, data)
                ctx["accesses"] += len(spec[1])
            elif kind == "fork":
                shell = ctx["shell"]
                child = kernel.fork(shell).pid
                for page in range(SHELL_PAGES):
                    result.append(kernel.read(child, SHELL_BASE + page * PAGE, BLOCK))
                for offset, data in spec[1]:
                    kernel.write(child, SHELL_BASE + offset, data)
                for offset, _data in spec[1]:
                    result.append(kernel.read(child, SHELL_BASE + offset, BLOCK))
                    result.append(kernel.read(shell, SHELL_BASE + offset, BLOCK))
                kernel.exit_process(child)
                ctx["accesses"] += SHELL_PAGES + 3 * len(spec[1])
            elif kind == "ipc":
                _kind, offset, message = spec
                kernel.write(ctx["producer"], PRODUCER_BASE + offset, message)
                result.append(kernel.read(ctx["consumer"], CONSUMER_BASE + offset, MESSAGE))
                ctx["accesses"] += 2
            else:
                _kind, page, slot, byte_offset = spec
                kernel.swap.corrupt_slot(slot, byte_offset=byte_offset)
                try:
                    kernel.read(ctx["main"], MAIN_BASE + page * PAGE, BLOCK)
                    result = False
                except ctx["IntegrityError"]:
                    result = True
                ctx["accesses"] += 1
        except Exception as exc:  # the op raised: a failed op
            return [Op(start=start, end=time.perf_counter(), tier=kind, ok=False,
                       error=repr(exc))]
        return [Op(start=start, end=time.perf_counter(), tier=kind, data=result)]

    def check(self, ctx, spec, ops) -> None:
        op = ops[0]
        if op.ok is not None:
            return
        kind = spec[0]
        reads = op.data
        op.data = None
        if kind in ("resident", "faulting"):
            pid = ctx["main"]
            expected = []
            for offset, data in spec[1]:
                if data is None:
                    expected.append(self._expected(ctx, pid, MAIN_BASE, offset, BLOCK))
                else:
                    at = offset % PAGE
                    self._shadow(ctx, pid, MAIN_BASE, offset)[at:at + BLOCK] = data
            op.ok = reads == expected
        elif kind == "fork":
            shell = ctx["shell"]
            expected = [self._expected(ctx, shell, SHELL_BASE, page * PAGE, BLOCK)
                        for page in range(SHELL_PAGES)]
            for offset, data in spec[1]:
                expected.append(data)
                expected.append(self._expected(ctx, shell, SHELL_BASE, offset, BLOCK))
            op.ok = reads == expected
        elif kind == "ipc":
            op.ok = reads == [spec[2]]
        else:
            _kind, page, _slot, _byte = spec
            ctx["probes"] += 1
            ctx["detected"] += bool(reads)
            op.ok = reads is True
            # The page's swapped image is ruined: map a fresh one and
            # write its contents back, so it re-enters the frames and
            # the pool of swapped cold pages keeps its size.
            kernel = ctx["kernel"]
            kernel.munmap(ctx["main"], MAIN_BASE + page * PAGE, 1)
            kernel.mmap(ctx["main"], MAIN_BASE + page * PAGE, 1)
            contents = bytes(self._shadow(ctx, ctx["main"], MAIN_BASE, page * PAGE))
            kernel.write(ctx["main"], MAIN_BASE + page * PAGE, contents)
            ctx["accesses"] += PAGE // BLOCK
        if not op.ok:
            op.error = f"{kind} slice read data that differs from the shadow copy" \
                if kind != "tamper" else "swap tamper went undetected"

    # -- counters -----------------------------------------------------------------

    def counters(self, ctx) -> dict:
        kernel = ctx["kernel"]
        stats = kernel.stats
        return {"page_faults": stats.page_faults, "swap_ins": stats.swap_ins,
                "swap_outs": stats.swap_outs, "cow_breaks": stats.cow_breaks,
                "forks": stats.forks, "demand_zero_fills": stats.demand_zero_fills,
                "swap_dma": kernel.swap.writes + kernel.swap.reads,
                "tlb_hits": kernel.tlb.hits, "tlb_misses": kernel.tlb.misses,
                "accesses": ctx["accesses"], "probes": ctx["probes"],
                "detected": ctx["detected"]}

    def report(self, ctx, phase) -> dict:
        return {"kernel": {name: phase.after[name] - phase.before[name]
                           for name in phase.after}}

    def layer_counters(self, ctx, phase) -> dict:
        d = {name: phase.after[name] - phase.before[name] for name in phase.after}
        tlb = d["tlb_hits"] + d["tlb_misses"]
        return {
            "osmodel.swap.calls": d["swap_dma"],
            "osmodel.fault_ratio": d["page_faults"] / d["accesses"] if d["accesses"] else 0.0,
            "osmodel.tlb.hit_ratio": d["tlb_hits"] / tlb if tlb else 0.0,
        }
