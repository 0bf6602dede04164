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
  it. The warmup never moves the clock: an untimed request records the
  clock run at its timing point (the cold request was that point's
  first replay), and the record answers every timed one (a clock-memo
  hit: settlement only, see ``docs/timing-model.md``).
* ``replay_service`` — the stall overlap is perturbed per request
  instead: a new timing point, so a fresh machine runs the whole clock
  over the shared lowering. The price of a real replay.
* ``lru_hit`` — a byte-identical repeat request, served from the
  in-memory LRU tier at memory speed.

The ratios (``cold_process`` over ``warm_service`` / ``replay_service``
/ ``lru_hit``) are the service's reason to exist and the committed
regression surface. Each repeat is one alternation (a cold process, a
bare interpreter, then one request per service tier), and each ratio is
the median of the per-alternation ratios, so a slow spell of a shared
host lands on both of its sides. ``--check`` fails if a ratio regressed
more than ``--tolerance`` against the committed ``BENCH_service.json``,
or if any of them falls below the 5x acceptance floor. A faster cold
start lowers them by construction; ``cold_process_over_interpreter`` prices the cold start
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


def _request_s(client, request) -> float:
    start = time.perf_counter()
    client.request(request)
    return time.perf_counter() - start


def _ratio(numerators: list[float], denominators: list[float]) -> float:
    """The median of the per-alternation ratios."""
    return round(statistics.median(
        [num / den for num, den in zip(numerators, denominators)]), 2)


def run_benchmark(events: int, repeats: int) -> dict:
    cell = [sys.executable, "-m", "repro", "simulate",
            "--benchmark", WORKLOAD, "--events", str(events), "--json"]
    bare = [sys.executable, "-c", "pass"]
    samples = {tier: [] for tier in ("cold_process", "interpreter",
                                     "warm_service", "replay_service",
                                     "lru_hit")}

    with serve_background() as handle:
        with handle.client(tenant="loadgen") as client:
            base = dict(workload=WORKLOAD, config=CONFIG, events=events)
            cold_service = _request_s(client, schema.SimulateRequest(**base))
            # The cold request was its timing point's first replay; this
            # one records the clock run, so every timed warm request is
            # a clock-memo hit.
            client.request(schema.SimulateRequest(**base, warmup=0.25 + 1e-4))
            for i in range(repeats):
                # One alternation: a fresh interpreter dispatching the
                # cell, a bare one, then each service tier, so a slow
                # spell of a shared host lands on both sides of a ratio.
                samples["cold_process"].append(_process_s(cell))
                samples["interpreter"].append(_process_s(bare))
                # Untimed: the first request after the subprocesses pays
                # for waking the idle server, which no tier should carry.
                client.status()
                # Perturbed warmup: a fresh result key, served by the
                # pooled machine, the shared trace and its clock record.
                samples["warm_service"].append(_request_s(
                    client, schema.SimulateRequest(
                        **base, warmup=0.25 + (i + 1) * 1e-3)))
                # Perturbed overlap: a new timing point, so the clock
                # runs over the shared lowering.
                samples["replay_service"].append(_request_s(
                    client, schema.SimulateRequest(
                        **base, overlap=0.5 + (i + 1) * 1e-2)))
                samples["lru_hit"].append(_request_s(
                    client, schema.SimulateRequest(**base)))
            status = client.status()

    assert status["served"]["lru"] >= repeats, \
        "repeat requests were not LRU hits — tier attribution broke"
    cold = samples["cold_process"]
    return {
        "meta": {
            "events": events,
            "workload": WORKLOAD,
            "config": CONFIG,
            "repeats": repeats,
            "python": platform.python_version(),
            "note": "latencies are machine-specific; the ratios "
                    "(cold-process dispatch vs resident-service tiers), "
                    "each the median of per-alternation ratios, are "
                    "comparable across machines",
        },
        "latency_ms": {
            "cold_service": round(cold_service * 1000.0, 3),
            **{tier: _median_ms(times) for tier, times in samples.items()},
        },
        "ratios": {
            "cold_process_over_warm": _ratio(cold, samples["warm_service"]),
            "cold_process_over_replay": _ratio(cold, samples["replay_service"]),
            "cold_process_over_lru": _ratio(cold, samples["lru_hit"]),
            "warm_over_lru": _ratio(samples["warm_service"], samples["lru_hit"]),
            "cold_process_over_interpreter": _ratio(cold, samples["interpreter"]),
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
