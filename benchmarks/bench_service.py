#!/usr/bin/env python3
"""Load-generator benchmark for the sweep service: latency tiers.

Prices one cell request at the service's temperatures against the
cold-process floor:

* ``cold_process`` — a fresh ``python -m repro simulate --json``
  subprocess: interpreter boot, imports, trace decode, machine
  construction, simulation. What dispatching a cell costs without a
  resident service.
* ``interpreter`` — a bare ``python -c pass``, timed alternately with
  ``cold_process``: the host's floor for any fresh process.
* ``cold_service`` — the first-ever request on a fresh server: the
  socket round trip plus building the trace and the machine (filling
  every tier on the way out).
* ``warm_service`` — same machine fingerprint, new result key (the
  warmup knob is perturbed per request so no cache tier can answer):
  the pooled cold-reset machine and the shared pre-lowered trace serve
  it. The warmup never moves the clock: the first such request records
  the clock run at its timing point (the cold request was that point's
  first replay), and from the second on the record answers (a
  clock-memo hit: settlement only, see ``docs/timing-model.md``).
* ``replay_service`` — the stall overlap is perturbed per request
  instead: a new timing point, so a fresh machine runs the whole clock
  over the shared lowering. The price of a real replay.
* ``lru_hit`` — a byte-identical repeat request, served from the
  in-memory LRU tier at memory speed.

The ratios (``cold_process`` over ``warm_service`` / ``replay_service``
/ ``lru_hit``) are the service's reason to exist and the committed
regression surface: ``--check`` fails if a ratio regressed more than
``--tolerance`` against the committed ``BENCH_service.json``, or if any
of them falls below the 5x acceptance floor. A faster cold start lowers both by
construction; ``cold_process_over_interpreter`` prices the cold start
itself in bare interpreter starts, and ``--check`` fails if it rose
more than ``--tolerance``. Absolute latencies are machine-specific;
the ratios are comparable anywhere.

Run:  PYTHONPATH=src python benchmarks/bench_service.py [--events N]
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys
import time

import ledger
from repro.api import schema
from repro.service import serve_background

WORKLOAD = "stream"
CONFIG = "aise+bmt"
ACCEPTANCE_FLOOR = 5.0

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_service.json")


def _median_ms(samples: list[float]) -> float:
    return round(statistics.median(samples) * 1000.0, 3)


def _process_s(command: list[str]) -> float:
    """Wall time of ``command`` in a fresh interpreter."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    start = time.perf_counter()
    proc = subprocess.run(command, env=env, cwd=root,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed: {proc.stderr}")
    return elapsed


def _cold_process_ms(events: int, repeats: int) -> tuple[float, float]:
    """One cell via a fresh interpreter (the no-service dispatch cost)
    and a bare interpreter start, medians of alternating runs."""
    cell = [sys.executable, "-m", "repro", "simulate",
            "--benchmark", WORKLOAD, "--events", str(events), "--json"]
    bare = [sys.executable, "-c", "pass"]
    cells, bares = [], []
    for _ in range(repeats):
        cells.append(_process_s(cell))
        bares.append(_process_s(bare))
    return _median_ms(cells), _median_ms(bares)


def _request_ms(client, request) -> float:
    start = time.perf_counter()
    client.request(request)
    return time.perf_counter() - start


def run_benchmark(events: int, repeats: int) -> dict:
    cold_process, interpreter = _cold_process_ms(events, max(2, repeats // 2))

    with serve_background() as handle:
        with handle.client(tenant="loadgen") as client:
            base = dict(workload=WORKLOAD, config=CONFIG, events=events)
            cold_service = _median_ms(
                [_request_ms(client, schema.SimulateRequest(**base))])
            # Perturbed warmup: a fresh result key every time, served by
            # the pooled machine, the shared trace and its clock record.
            warm = _median_ms([
                _request_ms(client, schema.SimulateRequest(
                    **base, warmup=0.25 + (i + 1) * 1e-3))
                for i in range(repeats)
            ])
            # Perturbed overlap: a new timing point every time, so the
            # clock runs over the shared lowering.
            replay = _median_ms([
                _request_ms(client, schema.SimulateRequest(
                    **base, overlap=0.5 + (i + 1) * 1e-2))
                for i in range(repeats)
            ])
            lru = _median_ms([
                _request_ms(client, schema.SimulateRequest(**base))
                for i in range(repeats)
            ])
            status = client.status()

    assert status["served"]["lru"] >= repeats, \
        "repeat requests were not LRU hits — tier attribution broke"
    return {
        "meta": {
            "events": events,
            "workload": WORKLOAD,
            "config": CONFIG,
            "repeats": repeats,
            "python": platform.python_version(),
            "note": "latencies are machine-specific; the ratios "
                    "(cold-process dispatch vs resident-service tiers) "
                    "are comparable across machines",
        },
        "latency_ms": {
            "interpreter": interpreter,
            "cold_process": cold_process,
            "cold_service": cold_service,
            "warm_service": warm,
            "replay_service": replay,
            "lru_hit": lru,
        },
        "ratios": {
            "cold_process_over_warm": round(cold_process / warm, 2),
            "cold_process_over_replay": round(cold_process / replay, 2),
            "cold_process_over_lru": round(cold_process / lru, 2),
            "warm_over_lru": round(warm / lru, 2),
            "cold_process_over_interpreter": round(cold_process / interpreter, 2),
        },
    }


# The committed ratios --check guards; each must also clear the floor.
GUARDED = ("cold_process_over_warm", "cold_process_over_replay",
           "cold_process_over_lru")
# Guarded the other way: the cost of a cold cell in bare interpreter
# starts, which a slower import path raises.
CEILINGED = ("cold_process_over_interpreter",)


def check_regression(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Ratios below the acceptance floor or the committed baseline, or
    (``CEILINGED``) above the committed baseline."""
    failures = [
        f"{name}: {current['ratios'][name]:.1f}x is below the "
        f"{ACCEPTANCE_FLOOR:.0f}x acceptance floor"
        for name in GUARDED if current["ratios"][name] < ACCEPTANCE_FLOOR
    ]
    return (failures
            + ledger.regressions(current, baseline,
                                 [("ratios", name) for name in GUARDED], tolerance)
            + ledger.regressions(current, baseline,
                                 [("ratios", name) for name in CEILINGED], tolerance,
                                 lower_is_better=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=4_000,
                        help="trace length per request (default: 4000)")
    parser.add_argument("--repeats", type=int, default=6,
                        help="requests per tier (median is kept)")
    # Subprocess timing is noisy, hence the wide default tolerance.
    ledger.add_arguments(parser, DEFAULT_OUT, tolerance=0.50)
    args = parser.parse_args(argv)

    report = run_benchmark(args.events, args.repeats)
    for tier, latency in report["latency_ms"].items():
        print(f"{tier:14} {latency:>10.2f} ms")
    for name, ratio in report["ratios"].items():
        print(f"{name:22} {ratio:.1f}x")

    return ledger.finish(report, args, check_regression)


if __name__ == "__main__":
    sys.exit(main())
