#!/usr/bin/env python3
"""Mixed-tenant smoke run against the sweep service.

Boots a real socket server (or connects to one via ``--port``), then
drives it the way CI wants to see it survive:

* tenant ``alice`` subscribes and sweeps the full canonical grid
  through the server-side process pool, writing the returned body to
  ``--out`` — which must byte-diff clean against the committed
  figure-6 golden (``benchmarks/golden/figure6-events30000.json`` when
  run at ``--events 30000``).
* tenant ``bob`` concurrently sweeps an overlapping subset with
  ``workers=1`` (the serial ``run_cells`` path, in a server thread);
  every one of bob's cells must equal alice's copy of the same cell.
* alice's progress stream must validate as a well-formed per-job
  fleet record stream.

Exit 0 only if all three hold.

Run:  PYTHONPATH=src python benchmarks/service_smoke.py \
          --events 30000 --workers 0 --out service-sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from repro.obs.fleet import validate_progress_records
from repro.service import ServiceClient, serve_background

SUBSET_CONFIGS = ("base", "aise+bmt", "global64+mt")
SUBSET_BENCHMARKS = ("gzip", "eon", "art")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=30_000)
    parser.add_argument("--workers", type=int, default=0,
                        help="pool width for the full-grid sweep "
                             "(0 = one per core)")
    parser.add_argument("--out", default="service-sweep.json",
                        help="where to write the full-grid sweep body")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="connect to an already-running server "
                             "instead of booting one in-process")
    args = parser.parse_args(argv)

    handle = None
    if args.port is None:
        handle = serve_background()
        host, port = "127.0.0.1", handle.port
    else:
        host, port = args.host, args.port

    try:
        bob_result: dict = {}

        def bob_run():
            with ServiceClient(host, port, tenant="bob") as bob:
                bob_result["body"] = bob.sweep(
                    configs=list(SUBSET_CONFIGS),
                    benchmarks=list(SUBSET_BENCHMARKS),
                    events=args.events)

        bob_thread = threading.Thread(target=bob_run)
        with ServiceClient(host, port, tenant="alice") as alice:
            alice.subscribe()
            bob_thread.start()
            body = alice.sweep(events=args.events, workers=args.workers)
            bob_thread.join()
            status = alice.status()

        with open(args.out, "w") as f:
            f.write(json.dumps(body, indent=2, sort_keys=True) + "\n")
        print(f"alice: {len(body['cells'])} cells written to {args.out}")

        failures = []
        overlap = 0
        for key, cell in bob_result["body"]["cells"].items():
            overlap += 1
            if body["cells"].get(key) != cell:
                failures.append(f"tenant disagreement on cell {key}")
        print(f"bob: {overlap} overlapping cells cross-checked")

        jobs = {event["job"] for event in alice.events}
        for job in sorted(jobs):
            records = [event["record"] for event in alice.events
                       if event["job"] == job]
            for problem in validate_progress_records(records):
                failures.append(f"job {job} progress: {problem}")
        print(f"alice: progress streams for jobs {sorted(jobs)} validated")
        print(f"served: {status['served']}")

        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if failures else 0
    finally:
        if handle is not None:
            handle.stop()


if __name__ == "__main__":
    sys.exit(main())
