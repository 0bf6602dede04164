"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``   — regenerate the paper's tables and figures (text).
* ``sweep``    — simulate the (benchmark x configuration) grid, optionally in
  parallel (``--workers``) and against a persistent result cache
  (``--cache``); emits deterministic per-cell JSON.
* ``simulate`` — run one benchmark trace against one configuration.
* ``trace``    — run one workload under full observability: Chrome trace-event
  JSON (Perfetto-loadable), optional JSONL event stream and interval
  snapshots (see docs/observability.md).
* ``metrics``  — export a metric snapshot (a ``sweep --fleet`` report, a
  ``trace --snapshots`` file, or a bare snapshot) as Prometheus text
  format or JSON.
* ``precompile`` — lower a workload's trace to the compiled fastpath
  program ahead of time and report the pattern mix.
* ``serve``    — run the simulation service: an asyncio job server that
  answers simulate/sweep/trace/precompile requests from many concurrent
  clients over newline-delimited JSON (see docs/service.md).
* ``submit``   — submit one request to a running service and print the
  versioned response envelope.
* ``attacks``  — print the attack-detection matrix for a configuration.
* ``storage``  — print the analytic storage breakdown (Table 2 model).
* ``analyze``  — run the security-invariant linter (see docs/static-analysis.md).

The simulation knobs are spelled the same everywhere: ``--events`` on
the CLI is ``events=`` on the :mod:`repro.api` facade and in the service
protocol, because the flags of sweep/trace/precompile/submit are
generated from the :mod:`repro.api.schema` request fields. ``--json`` on
simulate/sweep/trace prints the versioned envelope instead of the text.

Global flags: ``--log-level {debug,info,warning,error}`` (or ``-v`` for
debug) tune the stderr diagnostics every command routes through
:mod:`repro.obs.log`.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_report(args) -> int:
    from .evalx.report import main as report_main

    forwarded = ["--events", str(args.events), "--workers", str(args.workers)]
    if args.figures:
        forwarded += ["--figures", *args.figures]
    if args.out:
        forwarded += ["--out", args.out]
    if args.data_dir:
        forwarded += ["--data-dir", args.data_dir]
    if args.cache_dir:
        forwarded += ["--cache", args.cache_dir]
    return report_main(forwarded)


def _cmd_sweep(args) -> int:
    import json

    from . import api
    from .api import schema
    from .evalx.report import render_table
    from .evalx.tables import results_table
    from .obs import fleet as fleet_mod
    from .obs.log import get_logger

    log = get_logger("cli")
    # Fleet capture rides along whenever any observability output is
    # requested; it never changes the result payload (byte-identical
    # with or without, a CI-enforced invariant).
    want_fleet = bool(args.fleet or args.fleet_chrome)
    sinks = []
    if args.live:
        sinks.append(fleet_mod.TtyProgressSink())
    if args.live_jsonl:
        sinks.append(fleet_mod.JsonlProgressSink(args.live_jsonl))
    try:
        run = api.sweep(
            **schema.request_knobs(schema.SweepRequest, args),
            cache_dir=args.cache_dir,
            fleet=want_fleet,
            live_sinks=sinks or None,
        )
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    # Deterministic payload: sorted keys, lossless floats — two sweeps of
    # the same grid (serial or parallel, cached or cold) diff byte-equal.
    text = json.dumps(run.to_payload(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        log.info("%d cells written to %s", len(run.grid), args.out)
    elif args.json:
        envelope = schema.sweep_envelope(run.to_payload())
        print(json.dumps(envelope.to_wire(), indent=2, sort_keys=True))
    else:
        print(text)
    if args.live_jsonl:
        log.info("progress stream written to %s", args.live_jsonl)
    if run.fleet is not None:
        report = run.fleet
        if args.fleet:
            with open(args.fleet, "w") as f:
                json.dump(report.to_payload(), f, indent=2, sort_keys=True)
                f.write("\n")
            log.info("fleet report (%d cells, %d aggregated metrics) "
                     "written to %s", report.total, len(report.aggregate),
                     args.fleet)
        if args.fleet_chrome:
            with open(args.fleet_chrome, "w") as f:
                json.dump(fleet_mod.fleet_chrome_trace(report), f,
                          indent=2, sort_keys=True)
                f.write("\n")
            log.info("fleet chrome trace written to %s", args.fleet_chrome)
        log.info("engines: %s; fallback reasons: %s",
                 dict(sorted(report.engines.items())),
                 dict(sorted(report.fallback_reasons.items())) or "none")
    if run.runner.cache is not None:
        c = run.runner.cache
        log.info("cache %s: %d hits, %d misses, %d writes, %d corrupt, "
                 "%d stale tmp swept", c.root, c.hits, c.misses, c.writes,
                 c.corrupt, c.stale_tmp)
        if c.worker_hits or c.worker_misses or c.worker_writes:
            log.info("cache (workers): %d hits, %d misses, %d writes, "
                     "%d corrupt, %d stale tmp swept", c.worker_hits,
                     c.worker_misses, c.worker_writes, c.worker_corrupt,
                     c.worker_stale_tmp)
    if args.summary:
        summary_labels = [label for label in run.labels if label != "base"]
        if "base" in run.labels and summary_labels:
            print(render_table(results_table(run.runner, summary_labels)), file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    from . import api
    from .core.config import ConfigurationError, MachineConfig
    from .obs.log import get_logger

    log = get_logger("cli")
    try:
        trace = api.load_trace(args.benchmark, args.events)
        config = MachineConfig.preset(f"{args.encryption}+{args.integrity}",
                                      mac_bits=args.mac_bits)
    except (ValueError, ConfigurationError) as exc:
        log.error("%s", exc)
        return 2
    result = api.simulate(trace, config, metrics=args.metrics)
    if args.json:
        import json

        from .api import schema

        envelope = schema.result_envelope(
            result.to_dict(), workload=args.benchmark,
            config=f"{args.encryption}+{args.integrity}")
        print(json.dumps(envelope.to_wire(), indent=2, sort_keys=True))
        return 0
    base = api.simulate(trace, "base")
    print(f"benchmark        : {args.benchmark} ({args.events} L2 accesses)")
    print(f"configuration    : {args.encryption}+{args.integrity}, {args.mac_bits}-bit MACs")
    print(f"cycles           : {result.cycles:,.0f} (base {base.cycles:,.0f})")
    print(f"overhead         : {result.overhead_vs(base):.1%}")
    print(f"IPC              : {result.ipc:.2f}")
    print(f"L2 miss rate     : {result.l2_miss_rate:.1%} (base {base.l2_miss_rate:.1%})")
    print(f"L2 data fraction : {result.l2_data_fraction:.1%}")
    print(f"bus utilization  : {result.bus_utilization:.1%} (base {base.bus_utilization:.1%})")
    if result.counter_accesses:
        print(f"counter miss rate: {result.counter_miss_rate:.1%}")
        print(f"exposed AES      : {result.exposed_decrypt_cycles:,.0f} cycles")
    return 0


def _cmd_trace(args) -> int:
    import json

    from . import api
    from .api import schema
    from .core.config import ConfigurationError
    from .obs import chrome
    from .obs.log import get_logger

    log = get_logger("cli")
    jsonl_file = open(args.jsonl, "w") if args.jsonl else None
    try:
        run = api.trace(**schema.request_knobs(schema.TraceRequest, args),
                        jsonl=jsonl_file)
    except (ValueError, ConfigurationError) as exc:
        log.error("%s", exc)
        return 2
    finally:
        if jsonl_file is not None:
            jsonl_file.close()

    problems = chrome.validate_chrome_trace(run.chrome)
    if problems:
        for problem in problems[:20]:
            log.error("invalid chrome trace: %s", problem)
        return 1
    with open(args.out, "w") as f:
        json.dump(run.chrome, f, indent=2, sort_keys=True)
        f.write("\n")
    if args.snapshots:
        payload = {
            "workload": args.workload,
            "config": args.config,
            "events": args.events,
            "interval": args.interval,
            "warmup": args.warmup,
            "samples": run.samples,
            "phases": run.phases,
            "result": run.result.to_dict(),
        }
        with open(args.snapshots, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        log.info("%d interval snapshots written to %s",
                 len(run.samples), args.snapshots)
    if args.jsonl:
        log.info("%d events streamed to %s", len(run.events), args.jsonl)
    if args.json:
        envelope = schema.trace_envelope(run.to_payload())
        print(json.dumps(envelope.to_wire(), indent=2, sort_keys=True))
        return 0
    print(f"workload      : {run.workload} ({args.events} L2 accesses)")
    print(f"configuration : {run.config_label}")
    print(f"cycles        : {run.result.cycles:,.0f} (IPC {run.result.ipc:.2f})")
    print(f"trace         : {args.out} ({len(run.chrome['traceEvents'])} records, "
          f"{len(run.events)} events, {len(run.samples)} samples)")
    return 0


def _cmd_precompile(args) -> int:
    import json

    from . import api
    from .api import schema
    from .core.config import ConfigurationError
    from .obs.log import get_logger

    log = get_logger("cli")
    try:
        summary = api.precompile(
            **schema.request_knobs(schema.PrecompileRequest, args))
    except (ValueError, ConfigurationError) as exc:
        log.error("%s", exc)
        return 2
    # The summary's "trace" is the live Trace object (the memo host);
    # report the workload name on the wire, same as the service does.
    wire = {"workload": args.workload, "config": args.config,
            "events": summary["events"], "misses": summary["misses"],
            "patterns": summary["patterns"], "cached": summary["cached"]}
    if args.json:
        envelope = schema.ok_envelope(op="precompile", **wire)
        print(json.dumps(envelope.to_wire(), indent=2, sort_keys=True))
        return 0
    print(f"workload : {args.workload} ({wire['events']} events, "
          f"{wire['misses']} misses)")
    print(f"config   : {args.config}")
    print(f"patterns : {wire['patterns']}")
    print(f"cached   : {wire['cached']}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .obs.log import get_logger
    from .service.server import SweepService

    log = get_logger("cli")
    service = SweepService(
        cache_dir=args.cache_dir,
        lru_capacity=args.lru_capacity,
        pool_capacity=args.pool_capacity,
        trace_capacity=args.trace_capacity,
        sim_slots=args.sim_slots,
        sweep_jobs=args.sweep_jobs,
    )

    async def run() -> None:
        await service.start(args.host, args.port)
        log.info("sweep service listening on %s:%d (cache_dir=%s)",
                 args.host, service.port, args.cache_dir or "none")
        print(f"listening on {args.host}:{service.port}", flush=True)
        await service.serve_until_stopped()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log.info("interrupted; shutting down")
    return 0


def _cmd_submit(args) -> int:
    import json

    from .api import schema
    from .obs.log import get_logger
    from .service.client import ServiceClient, ServiceError

    log = get_logger("cli")
    cls = schema.REQUEST_TYPES[args.op]
    request = cls(**schema.request_knobs(cls, args))
    try:
        with ServiceClient(args.host, args.port, tenant=args.tenant) as client:
            if args.subscribe:
                client.subscribe()
            envelope = client.request(request)
            events = list(client.events) if args.subscribe else []
    except (ConnectionError, OSError) as exc:
        log.error("cannot reach service at %s:%d: %s",
                  args.host, args.port, exc)
        return 2
    except ServiceError as exc:
        log.error("service error: %s", exc)
        return 1
    # Writing the output is not connection work: its failures say so.
    out = args.out if args.op == "sweep" else None
    try:
        if out:
            # Legacy bytes: the body IS SweepRun.to_payload(), so this
            # file diffs byte-equal against `repro sweep --out`.
            with open(out, "w") as f:
                f.write(json.dumps(envelope.body, indent=2,
                                   sort_keys=True) + "\n")
            log.info("%d cells written to %s", len(envelope.body["cells"]),
                     out)
        else:
            print(json.dumps(envelope.to_wire(), indent=2, sort_keys=True))
        for event in events:
            print(json.dumps(event, sort_keys=True), file=sys.stderr)
    except BrokenPipeError:
        return 1
    except OSError as exc:
        log.error("cannot write %s: %s", out or "<stdout>", exc)
        return 1
    return 0


def _cmd_attacks(args) -> int:
    from .attacks import run_all
    from .core.config import MachineConfig
    from .core.machine import SecureMemorySystem

    machine = SecureMemorySystem(
        MachineConfig(physical_bytes=16 * 4096, encryption=args.encryption,
                      integrity=args.integrity)
    )
    machine.boot()
    print(f"configuration: {args.encryption}+{args.integrity}")
    for result in run_all(machine):
        verdict = "DETECTED" if result.detected else "MISSED"
        print(f"  {result.scenario:15} {verdict:9} {result.detail}")
    return 0


def _cmd_storage(args) -> int:
    from .core.storage import storage_breakdown

    b = storage_breakdown(args.encryption, args.integrity, args.mac_bits,
                          data_bytes=args.data_mb << 20)
    print(f"configuration   : {args.encryption}+{args.integrity}, "
          f"{args.mac_bits}-bit MACs, {args.data_mb}MB data")
    print(f"counters        : {b.counter_bytes / (1 << 20):10.2f} MB  ({b.counter_fraction:6.2%})")
    print(f"MACs/tree nodes : {b.merkle_bytes / (1 << 20):10.2f} MB  ({b.merkle_fraction:6.2%})")
    print(f"page root dir   : {b.page_root_bytes / (1 << 20):10.2f} MB  ({b.page_root_fraction:6.2%})")
    print(f"total overhead  : {b.overhead_fraction:.2%} of total memory")
    return 0


def _cmd_metrics(args) -> int:
    import json

    from .obs import fleet as fleet_mod
    from .obs import prom
    from .obs.log import get_logger

    log = get_logger("cli")
    try:
        with open(args.input) as f:
            doc = json.load(f)
        snapshot = fleet_mod.extract_snapshot(doc)
    except (OSError, ValueError) as exc:
        log.error("%s: %s", args.input, exc)
        return 2
    if args.format == "prometheus":
        text = prom.prometheus_exposition(snapshot, prefix=args.prefix)
        if args.check:
            problems = prom.validate_prometheus_text(text)
            if problems:
                for problem in problems[:20]:
                    log.error("invalid exposition: %s", problem)
                return 1
    else:
        text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        log.info("%d metrics written to %s (%s)",
                 len(snapshot), args.out, args.format)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_analyze(args) -> int:
    from .analysis.cli import main as analyze_main

    return analyze_main(args.analyzer_args)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (``analyze`` aside)."""
    from .api import schema

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="stderr diagnostic verbosity (default: info, "
                             "or $REPRO_LOG_LEVEL)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="shorthand for --log-level debug")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="regenerate the paper's tables and figures")
    # The paper's figures are measured at 120k events; the report command
    # keeps that fidelity default rather than the interactive knob grammar.
    p.add_argument("--events", type=int, default=120_000)
    p.add_argument("--figures", nargs="*", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", "--cache", dest="cache_dir", default=None,
                   metavar="DIR")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep", help="simulate the benchmark x configuration grid")
    schema.add_request_args(p, schema.SweepRequest)
    p.add_argument("--cache-dir", "--cache", dest="cache_dir", default=None,
                   metavar="DIR",
                   help="persistent result-cache directory "
                        "(e.g. benchmarks/results/cache); --cache is the "
                        "deprecated spelling")
    p.add_argument("--out", default=None, help="write per-cell JSON here")
    p.add_argument("--json", action="store_true",
                   help="print the versioned response envelope to stdout "
                        "instead of the bare payload (ignored with --out)")
    p.add_argument("--summary", action="store_true",
                   help="also print a measured-averages table (stderr)")
    p.add_argument("--live", action="store_true",
                   help="render live sweep progress on stderr (cells done, "
                        "cells/sec, ETA, cache hit ratio)")
    p.add_argument("--live-jsonl", default=None, metavar="FILE",
                   help="stream typed progress records as JSON Lines")
    p.add_argument("--fleet", default=None, metavar="FILE",
                   help="write the aggregated fleet observability report "
                        "(per-cell engine attribution, merged metrics, "
                        "per-worker utilization)")
    p.add_argument("--fleet-chrome", default=None, metavar="FILE",
                   help="write a whole-sweep Chrome trace, one lane per "
                        "worker process (Perfetto-loadable)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="simulate one benchmark/configuration")
    p.add_argument("--benchmark", default="art")
    p.add_argument("--encryption", default="aise")
    p.add_argument("--integrity", default="bonsai")
    p.add_argument("--mac-bits", type=int, default=128)
    p.add_argument("--events", type=int, default=60_000)
    p.add_argument("--metrics", action="store_true",
                   help="attach the end-of-run metrics-registry snapshot "
                        "to the result")
    p.add_argument("--json", action="store_true",
                   help="print the versioned result envelope instead of "
                        "the human summary")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("trace", help="run one workload under full observability")
    schema.add_request_args(p, schema.TraceRequest, positional=("workload",))
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace-event JSON output (Perfetto-loadable)")
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="also stream raw events as JSON Lines")
    p.add_argument("--snapshots", default=None, metavar="FILE",
                   help="also write interval snapshots + final result JSON")
    p.add_argument("--json", action="store_true",
                   help="print the versioned trace envelope instead of "
                        "the human summary")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("precompile",
                       help="lower a workload's trace to the compiled "
                            "fastpath program ahead of time")
    schema.add_request_args(p, schema.PrecompileRequest,
                            positional=("workload",))
    p.add_argument("--json", action="store_true",
                   help="print the versioned response envelope")
    p.set_defaults(func=_cmd_precompile)

    p = sub.add_parser("serve",
                       help="run the simulation service (see docs/service.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8737,
                   help="listen port (0 = ephemeral; default: 8737)")
    p.add_argument("--cache-dir", "--cache", dest="cache_dir", default=None,
                   metavar="DIR",
                   help="persistent result-cache directory shared by all "
                        "tenants; --cache is the deprecated spelling")
    p.add_argument("--lru-capacity", type=int, default=4096,
                   help="in-memory result-tier capacity (cells)")
    p.add_argument("--pool-capacity", type=int, default=8,
                   help="warm machine pool capacity")
    p.add_argument("--trace-capacity", type=int, default=8,
                   help="decoded-trace store capacity")
    p.add_argument("--sim-slots", type=int, default=None,
                   help="max concurrent in-process simulations "
                        "(default: cores - 1)")
    p.add_argument("--sweep-jobs", type=int, default=1,
                   help="max concurrent process-pool sweep jobs")
    p.set_defaults(func=_cmd_serve)

    # `submit <op>`: one subparser per request type; hello and subscribe
    # are per-connection, behind --tenant and --subscribe.
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1")
    connection.add_argument("--port", type=int, default=8737)
    schema.add_request_args(connection, schema.HelloRequest)
    connection.add_argument("--subscribe", action="store_true",
                            help="receive fleet progress events (echoed to "
                                 "stderr as JSON lines)")
    p = sub.add_parser("submit",
                       help="submit one request to a running service")
    ops = p.add_subparsers(dest="op", required=True, metavar="op")
    for op, cls in schema.REQUEST_TYPES.items():
        if op in ("hello", "subscribe"):
            continue
        q = ops.add_parser(op, parents=[connection],
                           help=f"submit a {op} request")
        schema.add_request_args(q, cls)
        if op == "sweep":
            q.add_argument("--out", default=None, metavar="FILE",
                           help="write the bare per-cell payload here — "
                                "byte-identical to `repro sweep --out`")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("attacks", help="run the attack-detection matrix")
    p.add_argument("--encryption", default="aise")
    p.add_argument("--integrity", default="bonsai")
    p.set_defaults(func=_cmd_attacks)

    p = sub.add_parser("storage", help="analytic storage breakdown (Table 2 model)")
    p.add_argument("--encryption", default="aise")
    p.add_argument("--integrity", default="bonsai")
    p.add_argument("--mac-bits", type=int, default=128)
    p.add_argument("--data-mb", type=int, default=1024)
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser("metrics",
                       help="export a metric snapshot (fleet report, traced "
                            "run, or bare snapshot) as Prometheus text or JSON")
    p.add_argument("input", help="JSON file holding the snapshot (e.g. a "
                                 "--fleet report or trace --snapshots file)")
    p.add_argument("--format", default="prometheus",
                   choices=["prometheus", "json"])
    p.add_argument("--prefix", default="repro",
                   help="metric-name prefix for Prometheus output")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write here instead of stdout")
    p.add_argument("--check", action="store_true",
                   help="validate the Prometheus exposition before emitting")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("analyze", help="run the security-invariant linter",
                       add_help=False)
    p.add_argument("analyzer_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to repro.analysis (see --list-rules)")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        # Dispatch before argparse: the analyzer owns its own option
        # parsing, and argparse.REMAINDER chokes on a leading option
        # token (``repro analyze --list-rules``).
        from .analysis.cli import main as analyze_main

        return analyze_main(argv[1:])
    args = build_parser().parse_args(argv)
    from .obs.log import configure, verbosity_to_level

    configure(args.log_level or verbosity_to_level(args.verbose))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
