#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload fig6_cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; ``repro`` is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics (``setup_s``, ``ops_per_s``,
``op_p50_ms``, ``op_p90_ms``, ``peak_rss_mb``); ``--trace 1`` runs the
same ops untraced, then again with spans around each layer's public
functions, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (raw host seconds, host-speed factors, tier mix,
counters). ``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}
# Per-layer metrics of the traced run: name -> unit. Self times are
# normalized seconds per op of the traced phase; calls are totals.
SELF_TIMES = (
    "workloads.generate", "fastpath.lower", "fastpath.replay",
    "fastpath.per_event", "sim.run", "sim.reset_cold", "evalx.run_cells",
    "evalx.cache.get", "api.schema.wire", "core.machine.read_block",
    "core.machine.write_block", "crypto.pad", "integrity.verify",
    "integrity.update",
)
CALLS = ("fastpath.lower", "fastpath.per_event", "crypto.pad")
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s/op" for layer in SELF_TIMES},
    **{f"{layer}.calls": "count" for layer in CALLS},
    "fastpath.lower.hit_ratio": "ratio",
    "evalx.cache.hit_ratio": "ratio",
    "service.lru.hit_ratio": "ratio",
    "service.pool.reuse_ratio": "ratio",
    "service.flight.coalesced": "count",
    "service.wait_s": "s/op",
    "osmodel.swap.calls": "count",
    "osmodel.fault_ratio": "ratio",
    "osmodel.tlb.hit_ratio": "ratio",
    "trace.overhead_s": "s/op",
    "trace.overhead_ratio": "ratio",
}
# Defaults of the counters a workload without that layer reports.
_NO_COUNTERS = {
    "evalx.cache.hit_ratio": 0.0, "service.lru.hit_ratio": 0.0,
    "service.pool.reuse_ratio": 0.0, "service.flight.coalesced": 0,
    "osmodel.swap.calls": 0, "osmodel.fault_ratio": 0.0,
    "osmodel.tlb.hit_ratio": 0.0,
}


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, ROOT)
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def workloads() -> dict:
    from perfbench.fig6_cold import Fig6Cold
    from perfbench.secure_os import SecureOS
    from perfbench.service_mixed import ServiceMixed

    return {cls.name: cls for cls in (Fig6Cold, ServiceMixed, SecureOS)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(ops) -> list:
    return [op for op in ops if op.ok is not True]


def _phase_detail(phase) -> dict:
    from perfbench.harness import latency_stats, tier_counts, tier_latency

    factors = phase.step_factor
    return {
        "ops": len(phase.ops), "steps": len(phase.step_raw),
        "raw_s": phase.raw_s, "normalized_s": phase.norm_s, "wall_s": phase.wall_s,
        "factor": {"median": statistics.median(factors), "min": min(factors),
                   "max": max(factors)},
        "latency": latency_stats(phase.ops), "tiers": tier_counts(phase.ops),
        "tier_p50_ms": tier_latency(phase.ops),
    }


def run_untraced(name: str, seed: int, seconds: float):
    """Set up, measure, check; set up again: end-to-end metrics."""
    from perfbench.harness import SETUP_REPEATS, Harness, latency_stats

    workload = workloads()[name](ROOT)
    harness = Harness(workload, seed)
    ctx, setup_norm, setup_raw = harness.setup()
    try:
        phase = harness.measure(ctx, seconds)
        report = workload.report(ctx, phase)
    finally:
        workload.close(ctx)
    ctx = None
    # The extra set-ups run after the phase, so the phase runs in a
    # process that has set up once, and the peak is read before them:
    # setup_s is the median over all of them.
    peak_rss_mb = _peak_rss_mb()
    ctx, more_norm, more_raw = harness.setup(repeats=SETUP_REPEATS - 1)
    workload.close(ctx)
    setup_norm += more_norm
    setup_raw += more_raw
    lat = latency_stats(phase.ops)
    failed = _failures(phase.ops)
    values = {
        "setup_s": statistics.median(setup_norm),
        "ops_per_s": len(phase.ops) / phase.norm_s,
        "op_p50_ms": lat["p50_ms"],
        "op_p90_ms": lat["p90_ms"],
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {metric: (value, END_TO_END_UNITS[metric]) for metric, value in values.items()}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 0,
        "setup": {"normalized_s": setup_norm, "raw_s": setup_raw},
        "measured": _phase_detail(phase), **report,
        "errors": [op.error for op in failed[:5]],
    }
    return metrics, len(phase.ops), len(failed), detail


def run_traced(name: str, seed: int, seconds: float, max_steps: int | None = None):
    """The same ops untraced, then traced: per-layer metrics + overhead."""
    from perfbench.harness import Harness
    from perfbench.tracing import Tracer

    workload = workloads()[name](ROOT)
    harness = Harness(workload, seed)
    if max_steps is None:
        max_steps = workload.trace_cap_steps
    ctx, _norm, _raw = harness.setup(repeats=1)
    try:
        plain = harness.measure(ctx, seconds, max_steps=max_steps)
    finally:
        workload.close(ctx)
    ctx = None
    steps = len(plain.step_raw)

    tracer = Tracer()
    tracer.install()
    try:
        ctx, _norm, _raw = harness.setup(repeats=1)
        try:
            traced = harness.measure(ctx, seconds, max_steps=steps, tracer=tracer)
            counters = {**_NO_COUNTERS, **workload.layer_counters(ctx, traced)}
            client_threads = ctx.get("client_threads")
        finally:
            workload.close(ctx)
    finally:
        tracer.uninstall()

    ops = len(traced.ops)
    summary = tracer.summary(traced.factor_of_step)
    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) / ops for layer in SELF_TIMES}
    metrics.update({f"{layer}.calls": calls.get(layer, 0) for layer in CALLS})
    probes = calls.get("fastpath.lower.probe", 0)
    lowers = calls.get("fastpath.lower", 0)
    metrics["fastpath.lower.hit_ratio"] = (probes - lowers) / probes if probes else 0.0
    metrics.update(counters)
    if client_threads:
        op_time = sum(op.seconds for op in traced.ops)
        server = tracer.server_seconds(client_threads, traced.factor_of_step)
        metrics["service.wait_s"] = (op_time - server) / ops
    else:
        metrics["service.wait_s"] = 0.0
    untraced_s = sum(plain.step_norm[:steps])
    traced_s = traced.norm_s
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / ops
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}.jsonl")
    tracer.write(spans_path)
    all_ops = plain.ops + traced.ops
    failed = _failures(all_ops)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 1,
        "untraced": _phase_detail(plain), "traced": _phase_detail(traced),
        "traced_steps": steps, "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "layer_calls": calls, "errors": [op.error for op in failed[:5]],
    }
    units = {metric: (value, PER_LAYER_UNITS[metric]) for metric, value in metrics.items()}
    return units, len(all_ops), len(failed), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    names = workloads()
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, detail = runner(args.workload, args.seed, args.seconds)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
