"""The traced-run golden: event streams and interval snapshots, digested.

A traced run (:func:`repro.api.trace`) is always a live run, walked and
replayed chunk by chunk, and everything it records comes from the obs
emission points of the per-miss walk and the replay: ``counter_miss``,
``bus_grant``, ``merkle_fetch``, ``decrypt_exposed`` and ``l2_miss``
events in their order, and interval snapshots of the metrics registry every
``INTERVAL`` measured events. This golden pins both, at ``EVENTS``
events of two workloads: ``mcf``, and ``conflict``, a seeded synthetic
trace crowded into a few L2 and counter-cache sets, so that dirty
evictions, counter writebacks and the lazy tree's drains and coalesced
walks start within those few events (a cold 1 MB L2 evicts nothing in
2,000 spread-out accesses). Each
runs on eight cells:

* the tree schemes ``aise+bmt``, ``aise+bmt_lazy``, ``aise+mt``,
  ``global64+mt`` and ``direct+mt``;
* ``aise+mt`` with a dedicated node cache;
* ``aise+mac_only`` with its data MACs cached in the L2;
* ``aise+bmt`` under precise verification.

Full outputs run to megabytes per cell, so each cell records the
SHA-256 of its JSONL event stream and of its snapshots file, written
byte for byte the way ``repro trace --jsonl/--snapshots`` writes them,
plus the count of each event name and the ``SimResult``. A mismatch
then names the cell and the event whose count moved.

Run ``python benchmarks/trace_golden.py --check`` to compare,
``--out FILE`` to write the payload elsewhere (for a ``diff``), or
``--write`` to regenerate (only for an intended change of the model or
of its emission points; say so in CHANGES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "trace-events2000.json"
WORKLOADS = ("mcf", "conflict")
EVENTS = 2_000
INTERVAL = 512
WARMUP = 0.25


def conflict_trace():
    """2,000 seeded accesses to the first 4 blocks of 24 pages, 40% writes.

    The pages sit 32 apart, so each block offset maps to one set of the
    default 1 MB L2 and every page's counter block (one per page under
    AISE) to one set of the default counter cache: both overflow their
    sets within a few hundred accesses, and the same counter block
    comes back dirty often enough for the lazy tree to coalesce walks.
    """
    import numpy as np

    from repro.sim.trace import Trace

    rng = np.random.default_rng(25)
    pages = rng.integers(0, 24, EVENTS) * 32
    blocks = rng.integers(0, 4, EVENTS)
    return Trace(
        gaps=rng.integers(0, 40, EVENTS).astype(np.uint32),
        ops=(rng.random(EVENTS) < 0.4).astype(np.uint8),
        addresses=(pages * 4096 + blocks * 64).astype(np.uint64),
        name="conflict",
    )


def cells() -> dict:
    """Cell name -> configuration (a preset label or a MachineConfig)."""
    from repro.core.config import CacheConfig, MachineConfig

    return {
        "aise+bmt": "aise+bmt",
        "aise+bmt_lazy": "aise+bmt_lazy",
        "aise+mt": "aise+mt",
        "global64+mt": "global64+mt",
        "direct+mt": "direct+mt",
        "aise+mt/node_cache": MachineConfig.preset(
            "aise+mt", node_cache=CacheConfig(32 * 1024, 8, 10)),
        "aise+mac_only/cached_macs": MachineConfig.preset(
            "aise+mac_only", cache_data_macs=True),
        "aise+bmt/precise": MachineConfig.preset(
            "aise+bmt", precise_verification=True),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def traced_cell(workload, name: str, config) -> dict:
    """One traced run, digested."""
    from repro import api

    stream = io.StringIO()
    run = api.trace(workload, config, events=EVENTS, interval=INTERVAL,
                    warmup=WARMUP, jsonl=stream)
    snapshots = {
        "workload": run.workload,
        "config": name,
        "events": EVENTS,
        "interval": INTERVAL,
        "warmup": WARMUP,
        "samples": run.samples,
        "phases": run.phases,
        "result": run.result.to_dict(),
    }
    counts: dict[str, int] = {}
    for event in run.events:
        counts[event.name] = counts.get(event.name, 0) + 1
    return {
        "jsonl_sha256": _sha256(stream.getvalue()),
        "snapshots_sha256": _sha256(
            json.dumps(snapshots, indent=2, sort_keys=True) + "\n"),
        "event_counts": counts,
        "samples": len(run.samples),
        "result": run.result.to_dict(),
    }


def run_all() -> dict:
    """Every cell of the golden, keyed by cell name."""
    configs = cells()
    traced = {}
    for workload in WORKLOADS:
        trace = conflict_trace() if workload == "conflict" else workload
        for name, config in configs.items():
            traced[f"{workload}/{name}"] = traced_cell(trace, name, config)
    return {"events": EVENTS, "interval": INTERVAL, "cells": traced}


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def differences(want: dict, got: dict) -> list[str]:
    """One line per differing cell, naming the fields and events that moved."""
    lines = []
    for name in sorted(set(want["cells"]) | set(got["cells"])):
        a, b = want["cells"].get(name), got["cells"].get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{name}: only in {'output' if a is None else 'golden'}")
            continue
        fields = [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
        events = sorted(event for event in set(a["event_counts"]) | set(b["event_counts"])
                        if a["event_counts"].get(event) != b["event_counts"].get(event))
        detail = f" (event counts of {', '.join(events)})" if events else ""
        lines.append(f"{name}: {', '.join(fields)} differ{detail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the committed golden")
    mode.add_argument("--write", action="store_true", help="regenerate the committed golden")
    mode.add_argument("--out", metavar="FILE", help="write the payload to FILE")
    args = parser.parse_args(argv)
    payload = run_all()
    text = dumps(payload)
    if args.write or args.out:
        path = GOLDEN if args.write else Path(args.out)
        path.write_text(text)
        print(f"wrote {path}")
        return 0
    if text != GOLDEN.read_text():
        for line in differences(json.loads(GOLDEN.read_text()), payload) or [
                f"{GOLDEN.name}: formatting differs"]:
            print(line, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
