"""The evaluation golden: every table and figure of the report, pinned.

``python -m repro.evalx.report --events 120000 --data-dir DIR`` exports
each table and figure of the paper's evaluation as JSON into ``DIR``.
This script runs that report and folds ``DIR``'s JSON files into one
payload, ``{"events": ..., "exports": {name: contents}}``, serialized
with sorted keys and lossless floats. The committed
``golden/report-events120000.json`` is that payload; it carries every
number EXPERIMENTS.md quotes at full precision, and
``tests/evalx/test_report_golden.py`` checks the quoted numbers against
it without running a simulation.

Figures 7, 8 and 11 replay one lowering under many timing knobs, so
this pins the clock as well as the traffic model.

Run ``python benchmarks/report_golden.py --check`` to compare (about a
minute and a half serial; ``--workers 0`` runs one process per core),
``--out FILE`` to write the payload elsewhere (for a ``diff``), or
``--write`` to regenerate (only for an intended model change; bump
``MODEL_VERSION`` and say so in CHANGES.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "report-events120000.json"
EVENTS = 120_000


def fold(data_dir: str | Path, events: int = EVENTS) -> dict:
    """The payload of a report's ``--data-dir`` exports."""
    exports = {path.stem: json.loads(path.read_text())
               for path in sorted(Path(data_dir).glob("*.json"))}
    return {"events": events, "exports": exports}


def run_all(workers: int = 1) -> dict:
    """Run the whole report into a scratch directory and fold it."""
    from repro.evalx.report import generate_report

    with tempfile.TemporaryDirectory() as data_dir:
        generate_report(EVENTS, data_dir=data_dir, workers=workers)
        return fold(data_dir)


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the committed golden")
    mode.add_argument("--write", action="store_true", help="regenerate the committed golden")
    mode.add_argument("--out", metavar="FILE", help="write the payload to FILE")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width for the simulation grid (0 = per core)")
    args = parser.parse_args(argv)
    text = dumps(run_all(args.workers))
    if args.write or args.out:
        path = GOLDEN if args.write else Path(args.out)
        path.write_text(text)
        print(f"wrote {path}")
        return 0
    if text != GOLDEN.read_text():
        want = json.loads(GOLDEN.read_text())["exports"]
        got = json.loads(text)["exports"]
        moved = sorted(name for name in set(want) | set(got)
                       if want.get(name) != got.get(name))
        print(f"{GOLDEN.name}: {', '.join(moved) or 'formatting'} differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
