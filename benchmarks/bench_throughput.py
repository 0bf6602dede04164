#!/usr/bin/env python3
"""Throughput benchmark: the fast paths vs what runs with the gate off.

Measures accesses/sec on both halves of the library — the functional
machine (real crypto, ``read_block``/``write_block``) and the trace-
driven timing model (``TimingSimulator.run``) — once with
``repro.fastpath`` forced off and once forced on. Off, the functional
machine runs its reference implementations (no pad memo, no interned
seeds), and a timing run is a live run: a walk of the simulator's own
caches, then the replay. The timing model is priced with a fresh
simulator per run (cold caches, the sweep-cell and served-request
protocol) in the ``timing_compiled`` section, over presets the memoized
replay (:mod:`repro.fastpath.compiled`) serves: its lowering is replayed
per run, exactly as a grid sweep replays it per cell, so the ratio is
what memoizing the walk saves. Presets the memoized replay turns away
run live either way, so there is nothing to compare for them. All runs
happen in the same process on the same inputs, so the *speedup ratios*
are meaningful on any machine even though absolute accesses/sec are
not. The two sides alternate repeat by repeat, so a slow spell of a
shared host lands on both, and each speedup is the median of the
per-alternation ratios.

Emits ``BENCH_throughput.json`` (the repo's perf trajectory; committed
at the repo root). ``--check`` re-runs the benchmark and fails if a
speedup ratio regressed more than ``--tolerance`` (default 20%) against
the committed baseline — the CI smoke job runs exactly that on a small
trace.

Run:  PYTHONPATH=src python benchmarks/bench_throughput.py [--events N]
"""

from __future__ import annotations

import argparse
import itertools
import os
import platform
import statistics
import sys
import time

import ledger
from repro import fastpath
from repro.api import TimingSimulator, build_machine, load_trace

BLOCK = 64
PAGE = 4096

FUNCTIONAL_PRESETS = ("aise", "aise+bmt")
TIMING_PRESETS = ("base", "aise", "aise+bmt", "global64+mt")
SECTIONS = ("functional", "timing_compiled")

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_throughput.json")


def _interleaved(repeats: int, timed) -> tuple[float, float, float]:
    """Median reference rate, fast rate and speedup over ``repeats``
    alternations of ``timed(gate)``.

    One reference repeat, then one fast repeat, each inside its own
    ``fastpath.forced``: a slow spell of a shared host lands on both
    sides of one alternation instead of on whichever side ran through
    it. The speedup is the median of the per-alternation ratios, so one
    lucky repeat on either side cannot set it.
    """
    rates = {False: [], True: []}
    for _ in range(repeats):
        for gate in (False, True):
            with fastpath.forced(gate):
                rates[gate].append(timed(gate))
    ratios = [fast / reference for reference, fast in zip(rates[False], rates[True])]
    return (statistics.median(rates[False]), statistics.median(rates[True]),
            statistics.median(ratios))


def _functional_accesses_per_sec(
    preset: str, pages: int, rounds: int, repeats: int
) -> tuple[float, float, float]:
    """Reference and fast accesses/sec of read-heavy traffic on a warm
    functional machine, each side's machine built under its own gate,
    and the speedup (see :func:`_interleaved`)."""
    addresses = [page * PAGE + line * BLOCK
                 for page in range(pages) for line in (0, 17, 42)]
    payload = bytes(range(64))
    machines = {}
    for gate in (False, True):
        with fastpath.forced(gate):
            machine = machines[gate] = build_machine(
                preset, physical_bytes=pages * PAGE)
            # Warm every page off the clock: first touch re-encrypts the
            # whole page (counter initialization), which is a boot cost,
            # not steady state throughput.
            for addr in addresses:
                machine.write_block(addr, payload)

    def timed(gate):
        machine = machines[gate]
        accesses = 0
        start = time.perf_counter()
        for round_ in range(rounds):
            for i, addr in enumerate(addresses):
                if (i + round_) % 8 == 0:
                    machine.write_block(addr, payload)
                else:
                    machine.read_block(addr)
                accesses += 1
        return accesses / (time.perf_counter() - start)

    return _interleaved(repeats, timed)


def _timing_cold_accesses_per_sec(preset: str, trace,
                                  repeats: int) -> tuple[float, float, float]:
    """Reference and compiled trace events/sec with a *fresh* simulator
    per run (cold caches), and the speedup (see :func:`_interleaved`).

    The sweep-cell protocol — every ``repro.evalx`` grid cell and every
    served request starts cold — and the one where the compiled trace
    replay engages for the schemes it serves. The trace's lowering is
    memoized across runs, exactly as a sweep replays it across cells.
    Each run takes a new stall overlap, so each is a new timing point
    and the replay runs the whole clock: a recorded clock run would
    answer a repeat at one point without it (see ``ClockRun`` in
    :mod:`repro.fastpath.compiled`).
    """
    config = build_machine(preset, boot=False).config
    overlaps = itertools.count()

    def timed(gate):
        sim = TimingSimulator(config, overlap=0.5 + next(overlaps) * 1e-4)
        start = time.perf_counter()
        sim.run(trace)
        return len(trace) / (time.perf_counter() - start)

    # Lower off the clock (a sweep pays it once per trace, then replays
    # it across every cell), then time the replays.
    with fastpath.forced(True):
        timed(True)
    return _interleaved(repeats, timed)


def run_benchmark(events: int, pages: int, rounds: int, repeats: int) -> dict:
    trace = load_trace("art", events)
    report = {
        "meta": {
            "events": events,
            "functional_pages": pages,
            "functional_rounds": rounds,
            "repeats": repeats,
            "python": platform.python_version(),
            "note": "accesses/sec are machine-specific; speedup ratios "
                    "(fastpath vs in-process reference) are comparable "
                    "across machines",
        },
        "functional": {},
        "timing_compiled": {},
    }
    for preset in FUNCTIONAL_PRESETS:
        reference, fast, speedup = _functional_accesses_per_sec(
            preset, pages, rounds, repeats)
        report["functional"][preset] = {
            "reference_accesses_per_sec": round(reference, 1),
            "fastpath_accesses_per_sec": round(fast, 1),
            "speedup": round(speedup, 3),
        }
    for preset in TIMING_PRESETS:
        reference, compiled, speedup = _timing_cold_accesses_per_sec(
            preset, trace, repeats)
        report["timing_compiled"][preset] = {
            "reference_accesses_per_sec": round(reference, 1),
            "compiled_accesses_per_sec": round(compiled, 1),
            "speedup": round(speedup, 3),
        }
    return report


def check_regression(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Speedup ratios that fell more than ``tolerance`` below the baseline."""
    paths = [(section, preset, "speedup")
             for section in SECTIONS for preset in baseline.get(section, {})]
    return ledger.regressions(current, baseline, paths, tolerance)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=30_000,
                        help="timing-path trace length (default: 30000)")
    parser.add_argument("--pages", type=int, default=24,
                        help="functional-path working set in pages")
    parser.add_argument("--rounds", type=int, default=40,
                        help="functional-path passes over the working set")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed runs per preset and mode (medians are "
                             "kept; default 15, the protocol --check holds "
                             "the ledger to)")
    ledger.add_arguments(parser, DEFAULT_OUT, tolerance=0.20)
    args = parser.parse_args(argv)

    report = run_benchmark(args.events, args.pages, args.rounds, args.repeats)
    for section in SECTIONS:
        for preset, cell in report[section].items():
            top = (cell.get("compiled_accesses_per_sec")
                   or cell["fastpath_accesses_per_sec"])
            print(f"{section:15} {preset:12} "
                  f"ref {cell['reference_accesses_per_sec']:>12,.0f}/s   "
                  f"fast {top:>12,.0f}/s   "
                  f"{cell['speedup']:.2f}x")

    return ledger.finish(report, args, check_regression)


if __name__ == "__main__":
    sys.exit(main())
