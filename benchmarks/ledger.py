"""The tail the committed-ledger bench harnesses share.

``bench_throughput.py``, ``bench_merkle.py`` and ``bench_service.py``
each measure, print, then hand their report here: :func:`finish` writes
it to ``--out`` (a ``--check`` run never overwrites the committed
baseline with its numbers) and, with ``--check``, holds the harness's
guarded ratios to the baseline, printing one ``REGRESSION:`` line per
failure and exiting 1. Each harness keeps what is its own: which ratios
it guards, its ``--tolerance`` default and any absolute floor.
"""

from __future__ import annotations

import json
import os
import sys


def add_arguments(parser, default_out: str, tolerance: float) -> None:
    """``--out``/``--check``/``--baseline``/``--tolerance`` for a harness."""
    name = os.path.basename(default_out)
    parser.add_argument("--out", default=default_out,
                        help=f"report path (default: {name})")
    parser.add_argument("--check", action="store_true",
                        help="also compare ratios against --baseline; "
                             "exit 1 on regression")
    parser.add_argument("--baseline", default=default_out,
                        help=f"committed report to --check against "
                             f"(default: {name})")
    parser.add_argument("--tolerance", type=float, default=tolerance,
                        help="allowed ratio regression for --check "
                             "(default: %(default)s)")


def _lookup(report: dict, path):
    for key in path:
        report = report[key]
    return report


def regressions(current: dict, baseline: dict, paths, tolerance: float,
                lower_is_better: bool = False) -> list[str]:
    """Ratios at key ``paths`` that fell more than ``tolerance`` below
    baseline (rose above it, with ``lower_is_better``)."""
    failures = []
    for path in paths:
        name = "/".join(path)
        try:
            committed = _lookup(baseline, path)
        except KeyError:
            failures.append(f"{name}: missing from baseline")
            continue
        try:
            now = _lookup(current, path)
        except KeyError:
            failures.append(f"{name}: missing from current run")
            continue
        if lower_is_better:
            ceiling = committed * (1.0 + tolerance)
            if now > ceiling:
                failures.append(
                    f"{name}: {now:.2f} > {ceiling:.2f} ({committed:.2f} "
                    f"committed, +{tolerance:.0%} tolerance)")
            continue
        floor = committed * (1.0 - tolerance)
        if now < floor:
            failures.append(
                f"{name}: {now:.2f} < {floor:.2f} ({committed:.2f} "
                f"committed, -{tolerance:.0%} tolerance)")
    return failures


def finish(report: dict, args, check_regression) -> int:
    """Write ``report``; with ``args.check``, guard it; the exit code.

    ``check_regression(report, baseline, tolerance)`` returns the
    harness's failures as strings.
    """
    if not (args.check
            and os.path.abspath(args.out) == os.path.abspath(args.baseline)):
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.out}")
    if not args.check:
        return 0
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 1
    failures = check_regression(report, baseline, args.tolerance)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"no ratio regression beyond {args.tolerance:.0%} vs {args.baseline}")
    return 0
