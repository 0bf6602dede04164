"""The live-run golden: the timing runs the memoized replay never serves.

The figure-6 golden (``golden/figure6-events30000.json``) is a cold
sweep, which the memoized replay answers under the default gate. Two
kinds of run always walk the simulator's own caches live instead, so
that golden cannot pin them; this one does, at 30,000 events per trace:

* ``<bench>/aise+bmt_lazy/cold`` — the lazy, coalescing tree-update
  scheme (engine reason ``deferred_updates``) on each of the 21
  figure-6 benchmarks, one fresh simulator per cell;
* ``<bench>/<preset>/warm`` — the second ``run()`` of one simulator on
  the same trace (reason ``warm_caches``), for each of the 7 figure-6
  presets on art, mcf and swim. The first run is the figure-6 cell.

Each entry is ``SimResult.to_dict()``, serialized the way
``repro sweep --out`` writes its cells (sorted keys, lossless floats),
so a diff against the committed ``golden/reference-events30000.json``
is byte for byte. ``tests/sim/test_reference_golden.py`` checks it.

Run ``python benchmarks/reference_golden.py --check`` to compare,
``--out FILE`` to write the payload elsewhere (for a ``diff``), or
``--write`` to regenerate (only for an intended model change; bump
``MODEL_VERSION`` and say so in CHANGES.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "reference-events30000.json"
EVENTS = 30_000
LAZY = "aise+bmt_lazy"
WARM_BENCHMARKS = ("art", "mcf", "swim")


def figure6_axes() -> tuple[tuple, tuple]:
    """The figure-6 benchmarks and presets, in the sweep's order."""
    from repro.evalx.runner import CONFIGS
    from repro.workloads.spec2k import SPEC2K_BENCHMARKS

    return tuple(SPEC2K_BENCHMARKS), tuple(CONFIGS)


def lazy_cell(trace) -> dict:
    """The ``aise+bmt_lazy`` cell of ``trace`` on a fresh simulator."""
    from repro.core.config import MachineConfig
    from repro.sim.simulator import TimingSimulator

    sim = TimingSimulator(MachineConfig.preset(LAZY))
    return sim.run(trace, label=LAZY).to_dict()


def warm_cell(trace, label: str) -> dict:
    """The second ``run()`` of one ``label`` simulator on ``trace``."""
    from repro.core.config import MachineConfig
    from repro.sim.simulator import TimingSimulator

    sim = TimingSimulator(MachineConfig.preset(label))
    sim.run(trace, label=label)
    return sim.run(trace, label=label).to_dict()


def run_all() -> dict:
    """Every cell of the golden, keyed ``bench/label/cold|warm``."""
    from repro.workloads.spec2k import spec_trace

    benchmarks, presets = figure6_axes()
    cells = {}
    for bench in benchmarks:
        trace = spec_trace(bench, EVENTS)
        cells[f"{bench}/{LAZY}/cold"] = lazy_cell(trace)
        if bench in WARM_BENCHMARKS:
            for label in presets:
                cells[f"{bench}/{label}/warm"] = warm_cell(trace, label)
    return {"events": EVENTS, "cells": cells}


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the committed golden")
    mode.add_argument("--write", action="store_true", help="regenerate the committed golden")
    mode.add_argument("--out", metavar="FILE", help="write the payload to FILE")
    args = parser.parse_args(argv)
    text = dumps(run_all())
    if args.write or args.out:
        path = GOLDEN if args.write else Path(args.out)
        path.write_text(text)
        print(f"wrote {path}")
        return 0
    if text != GOLDEN.read_text():
        want = json.loads(GOLDEN.read_text())["cells"]
        got = json.loads(text)["cells"]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                print(f"{name}: differs from {GOLDEN.name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
