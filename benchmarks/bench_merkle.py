#!/usr/bin/env python3
"""Merkle tree benchmark: eager vs incremental policies, sparse touches.

"Eager" is ``MerkleTree()`` (full build, write-through updates);
"incremental" is ``MerkleTree(lazy=True, coalesce=True)`` (lazy subtrees,
coalesced write-back). Two sections, one claim each:

``matched``
    Both configurations over the *same* modest covered range (default 4 MB).
    Prices ``build()`` (eager: hash everything; incremental: O(1) zero
    anchor) and a seeded sparse-touch update/verify workload (eager:
    full root walk per update; incremental: one parent patch, coalesced
    drains). The committed numbers are the two *speedup ratios* —
    machine-independent, unlike absolute ops/sec.

``sparse_gb``
    The incremental configuration alone over a multi-GB covered range (default
    4 GB) the eager tree cannot even build in reasonable time — the
    :class:`~repro.mem.dram.BlockMemory` is sparse, so only touched
    blocks exist. The committed guard is the *scale ratio*: sparse-touch
    ops/sec at 4 GB over ops/sec at the matched range. With lazy
    subtrees a touch costs only the tree *height* (logarithmic in
    covered size), so the ratio degrades gently with scale; an
    accidental O(covered) scan anywhere in the update path drags it
    toward 0 and fails the check.

Emits ``BENCH_merkle.json`` (committed at the repo root). ``--check``
re-runs and fails if any committed ratio regressed more than
``--tolerance`` (default 40% — these are short timed sections).

Run:  PYTHONPATH=src python benchmarks/bench_merkle.py [--ops N]
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import sys
import time

import ledger
from repro.crypto.mac import Blake2Mac
from repro.integrity.geometry import TreeGeometry
from repro.integrity.merkle import MerkleTree
from repro.mem.dram import BlockMemory

BLOCK = 64
MB = 1 << 20
GB = 1 << 30
MAC_BYTES = 16
KEY = b"bench-merkle-key"
SEED = 20070412  # the paper's MICRO submission year, pinned for determinism

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_merkle.json")


INCREMENTAL = {"lazy": True, "coalesce": True}


def make_tree(covered_bytes: int, **policy):
    geometry = TreeGeometry(0, covered_bytes, covered_bytes, MAC_BYTES)
    memory = BlockMemory(geometry.nodes_end + 4096)
    return MerkleTree(memory, geometry, Blake2Mac(KEY, MAC_BYTES * 8), **policy), memory


def sparse_touch(tree, memory, covered_bytes: int, ops: int,
                 flush_every: int = 64, burst: int = 8) -> float:
    """Seeded bursty sparse update/verify traffic; returns elapsed seconds.

    Touches come in bursts of ``burst`` consecutive blocks at seeded
    random locations — write traffic is bursty in practice (a cache
    writes back a dirty region, a page gets filled), and bursts are
    what the incremental policy's coalescing merges: siblings under one
    parent cost one node write instead of ``burst`` root walks. 90%
    writes, 10% verifies, with a periodic full flush so the queue
    drains like a real machine's (the write-through tree's
    ``flush_pending`` is a no-op).
    """
    rng = random.Random(SEED)
    blocks = covered_bytes // BLOCK
    addresses = []
    while len(addresses) < ops:
        start_block = rng.randrange(max(1, blocks - burst))
        addresses.extend((start_block + i) * BLOCK for i in range(burst))
    addresses = addresses[:ops]
    start = time.perf_counter()
    for i, addr in enumerate(addresses):
        if i % 10 == 9:
            tree.verify(addr)
        else:
            data = bytes([i & 0xFF]) * BLOCK
            memory.write_block(addr, data)
            tree.update(addr, data)
        if i % flush_every == flush_every - 1:
            tree.flush_pending()
    tree.flush_pending()
    return time.perf_counter() - start


def run_benchmark(matched_bytes: int, sparse_bytes: int, ops: int) -> dict:
    report = {
        "meta": {
            "matched_bytes": matched_bytes,
            "sparse_bytes": sparse_bytes,
            "ops": ops,
            "python": platform.python_version(),
            "note": "ops/sec are machine-specific; the committed guards "
                    "are the speedup and scale ratios",
        },
    }

    # -- matched range: head to head ----------------------------------------
    eager, eager_mem = make_tree(matched_bytes)
    start = time.perf_counter()
    eager.build()
    eager_build = time.perf_counter() - start

    lazy, lazy_mem = make_tree(matched_bytes, **INCREMENTAL)
    start = time.perf_counter()
    lazy.build()
    lazy_build = time.perf_counter() - start

    eager_elapsed = sparse_touch(eager, eager_mem, matched_bytes, ops)
    lazy_elapsed = sparse_touch(lazy, lazy_mem, matched_bytes, ops)
    lazy_matched_ops = ops / lazy_elapsed
    report["matched"] = {
        "eager": {
            "build_s": round(eager_build, 4),
            "ops_per_sec": round(ops / eager_elapsed, 1),
        },
        "incremental": {
            "build_s": round(lazy_build, 6),
            "ops_per_sec": round(lazy_matched_ops, 1),
            "coalesce_ratio": round(lazy.coalesce_ratio(), 4),
            "materialized_fraction": round(lazy.materialized_fraction(), 4),
        },
        "build_speedup": round(eager_build / max(lazy_build, 1e-9), 1),
        "update_speedup": round(eager_elapsed / lazy_elapsed, 3),
    }

    # -- multi-GB sparse: incremental only -----------------------------------
    big, big_mem = make_tree(sparse_bytes, **INCREMENTAL)
    start = time.perf_counter()
    big.build()
    big_build = time.perf_counter() - start
    big_elapsed = sparse_touch(big, big_mem, sparse_bytes, ops)
    big_ops = ops / big_elapsed
    report["sparse_gb"] = {
        "build_s": round(big_build, 6),
        "ops_per_sec": round(big_ops, 1),
        "materialized_fraction": round(big.materialized_fraction(), 8),
        "pending_after_flush": big.pending_updates(),
        # Touch cost may grow only with tree *height* (logarithmic: 13
        # levels at 4 GB vs 8 at 4 MB), never with the covered range
        # itself — lazy subtrees make untouched space free. Modest
        # degradation below 1.0 is the extra height; collapse toward 0
        # means an accidental O(covered) scan in the update path.
        "scale_ratio": round(big_ops / lazy_matched_ops, 3),
    }
    return report


# The committed ratios --check guards.
GUARDED = (
    ("matched", "update_speedup"),
    ("matched", "build_speedup"),
    ("sparse_gb", "scale_ratio"),
)


def check_regression(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Committed ratios that fell more than ``tolerance`` below baseline."""
    return ledger.regressions(current, baseline, GUARDED, tolerance)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--matched-mb", type=int, default=4,
                        help="head-to-head covered range in MB (default: 4)")
    parser.add_argument("--sparse-gb", type=int, default=4,
                        help="incremental-only covered range in GB (default: 4)")
    parser.add_argument("--ops", type=int, default=4000,
                        help="sparse-touch operations per section")
    ledger.add_arguments(parser, DEFAULT_OUT, tolerance=0.40)
    args = parser.parse_args(argv)

    report = run_benchmark(args.matched_mb * MB, args.sparse_gb * GB, args.ops)
    matched, sparse = report["matched"], report["sparse_gb"]
    print(f"matched {args.matched_mb} MB:")
    print(f"  build   eager {matched['eager']['build_s']:.3f}s   "
          f"incremental {matched['incremental']['build_s']:.6f}s   "
          f"{matched['build_speedup']:,.0f}x")
    print(f"  updates eager {matched['eager']['ops_per_sec']:>10,.0f}/s   "
          f"incremental {matched['incremental']['ops_per_sec']:>10,.0f}/s   "
          f"{matched['update_speedup']:.2f}x")
    print(f"sparse {args.sparse_gb} GB (incremental only):")
    print(f"  build {sparse['build_s']:.6f}s   "
          f"updates {sparse['ops_per_sec']:,.0f}/s   "
          f"materialized {sparse['materialized_fraction']:.2e}   "
          f"scale ratio {sparse['scale_ratio']:.2f}")

    return ledger.finish(report, args, check_regression)


if __name__ == "__main__":
    sys.exit(main())
