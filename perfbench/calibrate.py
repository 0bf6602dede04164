"""Host-speed calibration: a fixed pure-Python kernel timed between ops.

Host time on a shared machine drifts by tens of percent from minute to
minute; the simulator's own CPU time drifts with it. Part of the drift
is the core's speed, part is contention for the shared caches and
memory, which slows the simulator's large dict-and-list working sets
more than a small loop. The kernel therefore has two halves: a
dict-heavy loop over a tiny table, and a set-associative cache model
in dicts spread over a few MB. The benchmark times it in short slices
between ops (never while an op is in flight) and scales every host-time
metric by ``(NOMINAL_SLICE_S / measured slice time) ** EXPONENT``.

The kernel deliberately imports nothing from the program under test and
must not change: ``NOMINAL_SLICE_S`` is its slice time on the reference
host, and every normalized number is only comparable to numbers taken
with this exact kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time

# One slice = the fastest of SLICE_REPEATS kernel runs (the minimum
# discards interrupts landing inside a run; a slower host slows all of
# them). NOMINAL_SLICE_S is that slice on the reference host (a 2-vCPU
# KVM guest on an Intel Xeon with AVX-512), so a factor of 1.0 means
# "as fast as the reference host".
KERNEL_ITERATIONS = 2000
CACHE_SETS = 4096
CACHE_WAYS = 8
SLICE_REPEATS = 3
NOMINAL_SLICE_S = 0.00150
# Across host-speed states on the reference host, the simulator's ops
# slowed by about the 0.75th power of the kernel's slowdown (a 1.7x
# slower kernel came with 1.5x slower ops); fitted over lowering,
# replay, per-event and functional-machine ops.
EXPONENT = 0.75

# Slices considered around an instant when normalizing it.
WINDOW = 7


def new_cache_model() -> list:
    """The kernel's cache model: CACHE_SETS empty sets."""
    return [{} for _ in range(CACHE_SETS)]


def kernel(sets: list, iterations: int = KERNEL_ITERATIONS) -> int:
    """Small-table dict loop, then LRU lookups in the cache model."""
    table: dict[int, int] = {}
    log = []
    acc = 0
    for i in range(iterations):
        key = (i * 40503) & 1023
        value = table.get(key)
        if value is None:
            table[key] = i
        else:
            table[key] = value + 1
            acc ^= value
        if i & 7 == 0:
            log.append((key, acc))
        if len(table) > 512:
            table.clear()
    x = 777
    mask = CACHE_SETS - 1
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = x >> 6
        ways = sets[line & mask]
        tag = line >> 12
        if tag in ways:
            acc += 1
            ways[tag] = ways.pop(tag)
        else:
            if len(ways) >= CACHE_WAYS:
                del ways[next(iter(ways))]
            ways[tag] = i
    return acc + len(log)


class Calibrator:
    """Timed kernel slices and the normalization factors derived from them."""

    def __init__(self):
        self.sets = new_cache_model()
        kernel(self.sets)              # fill the model once
        self.times: list[float] = []   # perf_counter at each slice
        self.slices: list[float] = []  # slice duration, seconds
        self.spent = 0.0               # wall time spent calibrating

    def slice(self) -> float:
        """Time one slice now; returns its duration."""
        start = time.perf_counter()
        best = float("inf")
        for _ in range(SLICE_REPEATS):
            t0 = time.perf_counter()
            kernel(self.sets)
            best = min(best, time.perf_counter() - t0)
        end = time.perf_counter()
        self.times.append(end)
        self.slices.append(best)
        self.spent += end - start
        return best

    def slices_around(self, instant: float) -> list[float]:
        """The WINDOW slices closest in time to ``instant``."""
        if not self.slices:
            raise RuntimeError("no calibration slice taken")
        mid = bisect.bisect_left(self.times, instant)
        lo = max(0, mid - WINDOW // 2)
        hi = min(len(self.slices), lo + WINDOW)
        lo = max(0, hi - WINDOW)
        return self.slices[lo:hi]

    def factor_at(self, instant: float) -> float:
        """Scale from host seconds at ``instant`` to nominal seconds."""
        return (NOMINAL_SLICE_S / statistics.median(self.slices_around(instant))) ** EXPONENT


if __name__ == "__main__":
    cal = Calibrator()
    for _ in range(50):
        cal.slice()
    median = statistics.median(cal.slices)
    print(f"median slice {median * 1e3:.4f} ms (nominal {NOMINAL_SLICE_S * 1e3:.4f} ms), "
          f"factor {(NOMINAL_SLICE_S / median) ** EXPONENT:.4f}")
