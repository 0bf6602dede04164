"""repro.obs.fleet — cross-process observability for the sweep engine.

:mod:`repro.obs` (registry, tracer, Chrome export) is strictly
per-process; the parallel sweep engine (:mod:`repro.evalx.parallel`)
fans a grid out over a :class:`ProcessPoolExecutor`, so until this
module every worker-side metric died with its worker. Three layers fix
that, shaped so the future async sweep server can stream them to
clients unchanged:

* **Per-cell capture** — :func:`capture_cell` packages what one worker
  knows about one simulated cell into a plain JSON-ready dict: the
  serialized :class:`~repro.obs.registry.MetricsRegistry` snapshot,
  engine-selection telemetry (which engine ran, why the faster one was
  passed over, lowering-memo hit rates), the phase profile when an obs
  session was active, and wall/CPU timings the caller measured.
* **Aggregation** — :func:`merge_snapshots` defines the merge semantics
  per metric kind (counters and gauge counts **sum**; rate-like gauges
  — ``*rate``/``*fraction``/``*utilization``/``*.occupancy.*`` —
  **average**; fixed-edge histograms merge their counts element-wise
  and refuse mismatched edges; dict-valued gauges sum key-wise).
  :class:`FleetCollector` applies them across every cell of a sweep and
  produces a :class:`FleetReport`: aggregate snapshot, per-engine cell
  attribution, per-worker utilization, and the merged parent+worker
  disk-cache counts.
* **Progress stream** — :class:`ProgressStream` fans typed progress
  records (``sweep_begin`` / ``cell_start`` / ``cell_done`` /
  ``sweep_end``, schema in :data:`PROGRESS_SCHEMA`) into sinks with a
  two-method protocol (``emit(record)`` / ``close()``):
  :class:`JsonlProgressSink` (one sorted-key JSON object per line),
  :class:`TtyProgressSink` (the ``repro sweep --live`` renderer), and
  :class:`MemoryProgressSink` (tests, and the in-process shape a sweep
  server would wrap a client connection in).

Exposition: :mod:`repro.obs.prom` renders any snapshot (including a
report's ``aggregate``) in Prometheus text format, and
:func:`fleet_chrome_trace` lays a whole sweep out as a Chrome trace
with one lane per worker process. ``python -m repro.obs.fleet``
validates report payloads and progress JSONL files (the CI fleet job
runs exactly that).

Everything here is strictly additive on the simulation side: capture
reads snapshots and telemetry that already exist, attaches nothing to
:class:`~repro.sim.results.SimResult`, and never touches cache keys —
a sweep with fleet capture or a live stream enabled produces
byte-identical result JSON to one without.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

# Engine attribution values a cell record may carry: the two execution
# engines (see repro.fastpath) plus "cached" for cells served from the
# disk result cache without simulating. Kept as plain data — obs must
# not import the engine layer it observes.
CELL_ENGINES = ("compiled", "reference", "cached")

# Sources a cell result can come from.
SOURCE_POOL = "pool"            # simulated in a worker process
SOURCE_SERIAL = "serial"        # simulated in the parent
SOURCE_RETRY = "serial_retry"   # worker crashed; re-simulated in parent
SOURCE_CACHE = "cache"          # served from the disk result cache
CELL_SOURCES = (SOURCE_POOL, SOURCE_SERIAL, SOURCE_RETRY, SOURCE_CACHE)

_NUMBER = (int, float)


def _is_number(value) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


# -- per-cell capture ---------------------------------------------------------


def capture_cell(sim, phases: dict | None = None) -> dict:
    """Package one simulated cell's observability payload (JSON-ready).

    ``sim`` is the :class:`~repro.sim.simulator.TimingSimulator` that
    just ran the cell — its registry snapshot carries every registered
    metric including the ``engine.*`` telemetry gauges, and its
    :class:`~repro.fastpath.EngineTelemetry` names the engine the run
    used. ``phases`` is a :meth:`PhaseProfiler.snapshot` dict when the
    cell ran under an obs session (empty otherwise — the light capture
    deliberately arms no session, so engine selection stays free).
    Wall/CPU timings are the *caller's* to measure and attach (clock
    reads live in :mod:`repro.evalx`, the determinism rule's exempt
    zone).
    """
    telemetry = getattr(sim, "engine_telemetry", None)
    return {
        "engine": telemetry.last_engine if telemetry is not None else None,
        "fallback_reason": telemetry.last_reason if telemetry is not None else None,
        "metrics": sim.registry.snapshot(),
        "phases": dict(phases) if phases else {},
        "worker": os.getpid(),
    }


# -- merge semantics ----------------------------------------------------------

# Name shapes aggregated as means rather than sums: terminal components
# that are ratios of other metrics (re-summing them would be nonsense).
_MEAN_SUFFIXES = ("rate", "fraction", "utilization")


def _is_histogram(value: dict) -> bool:
    return set(value) == {"edges", "counts", "sum", "count"}


def merge_rule(name: str, value) -> str:
    """The merge semantic for one metric: ``sum``, ``mean``,
    ``histogram``, ``sum_by_key``, or ``skip`` (non-numeric).

    Counters and count-valued gauges sum across cells; rate-like gauges
    (``*rate``, ``*fraction``, ``*utilization``, occupancy fractions)
    average — an unweighted mean over cells, matching how the paper
    averages per-benchmark ratios; histograms merge element-wise;
    dict-valued gauges (e.g. ``bus.transfers_by_kind``) sum key-wise.
    """
    if isinstance(value, dict):
        return "histogram" if _is_histogram(value) else "sum_by_key"
    if not _is_number(value):
        return "skip"
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith(_MEAN_SUFFIXES) or ".occupancy." in name:
        return "mean"
    return "sum"


def merge_snapshots(snapshots) -> dict:
    """Aggregate registry snapshots under :func:`merge_rule`.

    Raises ``ValueError`` when two snapshots disagree on a histogram's
    bucket edges — fixed-edge histograms are the determinism contract,
    so a mismatch means the snapshots come from incompatible models.
    """
    sums: dict[str, float] = {}
    means: dict[str, list] = {}
    hists: dict[str, dict] = {}
    dicts: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap.items():
            kind = merge_rule(name, value)
            if kind == "sum":
                sums[name] = sums.get(name, 0) + value
            elif kind == "mean":
                means.setdefault(name, []).append(value)
            elif kind == "sum_by_key":
                into = dicts.setdefault(name, {})
                for key, count in value.items():
                    into[key] = into.get(key, 0) + count
            elif kind == "histogram":
                merged = hists.get(name)
                if merged is None:
                    hists[name] = {
                        "edges": list(value["edges"]),
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                elif list(value["edges"]) != merged["edges"]:
                    raise ValueError(
                        f"histogram {name!r}: bucket edges differ across "
                        f"snapshots ({merged['edges']} vs {list(value['edges'])})"
                    )
                else:
                    merged["counts"] = [
                        a + b for a, b in zip(merged["counts"], value["counts"])
                    ]
                    merged["sum"] += value["sum"]
                    merged["count"] += value["count"]
    out: dict = {}
    out.update(sums)
    for name, values in means.items():
        out[name] = sum(values) / len(values)
    out.update(hists)
    out.update(dicts)
    return {name: out[name] for name in sorted(out)}


# -- the sweep-level report ---------------------------------------------------


@dataclass
class FleetReport:
    """One sweep's fleet observability: attribution, aggregate, workers.

    ``cells`` holds one record per grid cell (bench/label/mac_bits,
    source, engine + fallback reason, timings, worker pid, and — for
    simulated cells — the full metrics snapshot and phase profile);
    ``aggregate`` is their :func:`merge_snapshots` merge; ``engines`` /
    ``fallback_reasons`` account for every cell; ``workers`` maps pid →
    cells/busy seconds/utilization; ``cache`` is the parent+worker
    merged :class:`~repro.evalx.parallel.ResultCache` accounting.
    """

    total: int
    simulated: int
    cached: int
    wall_s: float
    workers_requested: int
    events: int
    cells: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    engines: dict = field(default_factory=dict)
    fallback_reasons: dict = field(default_factory=dict)
    workers: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        """Deterministically ordered JSON payload (modulo timings)."""
        return {
            "total": self.total,
            "simulated": self.simulated,
            "cached": self.cached,
            "wall_s": self.wall_s,
            "workers_requested": self.workers_requested,
            "events": self.events,
            "engines": dict(sorted(self.engines.items())),
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
            "workers": {str(pid): stats for pid, stats in sorted(self.workers.items())},
            "cache": dict(sorted(self.cache.items())),
            "aggregate": self.aggregate,
            "cells": sorted(
                self.cells,
                key=lambda c: (c["bench"], c["label"], str(c.get("mac_bits"))),
            ),
        }


class FleetCollector:
    """Accumulates per-cell records during one ``run_cells`` sweep.

    Driven by :mod:`repro.evalx.parallel`: ``begin`` once, ``add_cell``
    per resolved cell, ``absorb_cache`` for each process's disk-cache
    count delta, ``finish`` with the sweep's wall time. The finished
    :class:`FleetReport` is returned and kept as ``.report``.
    """

    def __init__(self):
        self.cells: list[dict] = []
        self.cache: dict[str, int] = {}
        self.report: FleetReport | None = None
        self._total = 0
        self._workers = 0
        self._events = 0

    def begin(self, total: int, workers: int, events: int) -> None:
        self._total = total
        self._workers = workers
        self._events = events

    def add_cell(self, record: dict) -> None:
        """One resolved cell. Required keys: bench, label, mac_bits,
        source, engine; simulated cells also carry fallback_reason,
        metrics, phases, wall_s, cpu_s, t_start, t_end, worker."""
        self.cells.append(record)

    def absorb_cache(self, counts: dict) -> None:
        """Key-wise merge of one process's ResultCache count delta."""
        for key, value in counts.items():
            self.cache[key] = self.cache.get(key, 0) + value

    def finish(self, wall_s: float) -> FleetReport:
        engines: dict[str, int] = {}
        reasons: dict[str, int] = {}
        workers: dict[int, dict] = {}
        snapshots = []
        simulated = cached = 0
        for record in self.cells:
            engine = record.get("engine") or "unknown"
            engines[engine] = engines.get(engine, 0) + 1
            reason = record.get("fallback_reason")
            if reason:
                reasons[reason] = reasons.get(reason, 0) + 1
            if record.get("source") == SOURCE_CACHE:
                cached += 1
                continue
            simulated += 1
            if record.get("metrics"):
                snapshots.append(record["metrics"])
            pid = record.get("worker")
            if pid is not None:
                stats = workers.setdefault(pid, {"cells": 0, "busy_s": 0.0})
                stats["cells"] += 1
                stats["busy_s"] += record.get("wall_s") or 0.0
        for stats in workers.values():
            stats["utilization"] = (
                min(1.0, stats["busy_s"] / wall_s) if wall_s > 0 else 0.0
            )
        self.report = FleetReport(
            total=len(self.cells),
            simulated=simulated,
            cached=cached,
            wall_s=wall_s,
            workers_requested=self._workers,
            events=self._events,
            cells=self.cells,
            aggregate=merge_snapshots(snapshots),
            engines=engines,
            fallback_reasons=reasons,
            workers=workers,
            cache=dict(self.cache),
        )
        return self.report


def validate_fleet_payload(doc) -> list[str]:
    """Check a :meth:`FleetReport.to_payload` document; [] = valid.

    Enforces the acceptance invariants: every cell attributed to
    exactly one known engine, a fallback reason present on every
    non-compiled simulated cell, engine counts covering 100% of cells,
    and the counts block consistent with the cell list.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    for key in ("total", "simulated", "cached", "engines", "cells", "aggregate"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    cells = doc["cells"]
    if not isinstance(cells, list):
        return ["'cells' is not a list"]
    engines: dict[str, int] = {}
    simulated = cached = 0
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            problems.append(f"{where}: not an object")
            continue
        engine = cell.get("engine")
        if engine not in CELL_ENGINES:
            problems.append(f"{where}: engine {engine!r} not in {CELL_ENGINES}")
            continue
        engines[engine] = engines.get(engine, 0) + 1
        source = cell.get("source")
        if source not in CELL_SOURCES:
            problems.append(f"{where}: source {source!r} not in {CELL_SOURCES}")
        if source == SOURCE_CACHE:
            cached += 1
        else:
            simulated += 1
        if engine == "reference" and not cell.get("fallback_reason"):
            problems.append(f"{where}: {engine} cell lacks a fallback_reason")
        if engine == "compiled" and cell.get("fallback_reason"):
            problems.append(f"{where}: compiled cell carries a fallback_reason")
    if len(cells) != doc["total"]:
        problems.append(f"total={doc['total']} but {len(cells)} cell records")
    if sum(engines.values()) != len(cells):
        problems.append("engine attribution does not cover 100% of cells")
    if engines != doc["engines"]:
        problems.append(
            f"engines block {doc['engines']} disagrees with cells {engines}"
        )
    if simulated != doc["simulated"] or cached != doc["cached"]:
        problems.append(
            f"simulated/cached counts ({doc['simulated']}/{doc['cached']}) "
            f"disagree with cells ({simulated}/{cached})"
        )
    return problems


# -- the progress stream ------------------------------------------------------

# Record schema: required field name -> accepted type(s). Every record
# additionally carries "seq" (contiguous from 0) and "event". float
# fields accept ints. Optional fields (fallback_reason, mac_bits,
# cpu_s, cache, workers) are not listed. This is the wire format the
# future sweep server streams to clients — sinks see exactly these
# dicts, in order.
PROGRESS_SCHEMA: dict[str, dict[str, tuple]] = {
    "sweep_begin": {"total": (int,), "workers": (int,), "events": (int,)},
    "cell_start": {"bench": (str,), "label": (str,), "worker": (int,)},
    "cell_done": {
        "bench": (str,),
        "label": (str,),
        "done": (int,),
        "total": (int,),
        "source": (str,),
        "engine": (str,),
        "wall_s": (int, float),
        "cells_per_sec": (int, float),
        "eta_s": (int, float),
        "cache_hit_ratio": (int, float),
        "worker": (int,),
    },
    "sweep_end": {
        "total": (int,),
        "simulated": (int,),
        "cached": (int,),
        "wall_s": (int, float),
    },
}


class ProgressStream:
    """Fans sweep progress records into sinks, stamping sequence numbers.

    Thread-safe: the parallel engine emits from the parent thread and
    from the worker-queue drain thread concurrently. A sink is anything
    with ``emit(record: dict)`` and ``close()`` — the same protocol a
    sweep server would hand a client connection.
    """

    def __init__(self, sinks=()):
        import threading

        self.sinks = list(sinks)
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, event: str, **fields) -> dict:
        with self._lock:
            record = {"seq": self._seq, "event": event, **fields}
            self._seq += 1
            for sink in self.sinks:
                sink.emit(record)
        return record

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class MemoryProgressSink:
    """Retains every record (tests; the in-process server shape)."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlProgressSink:
    """Streams records as sorted-key JSON lines, flushed per record so
    ``tail -f`` (or a reconnecting client) sees cells as they land."""

    def __init__(self, target):
        if isinstance(target, (str, os.PathLike)):
            self.stream = open(target, "w")
            self._owned = True
        else:
            self.stream = target
            self._owned = False
        self.written = 0

    def emit(self, record: dict) -> None:
        self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.stream.flush()
        self.written += 1

    def close(self) -> None:
        if self._owned:
            self.stream.close()


class CallbackProgressSink:
    """Invokes one callable per record — the adapter a server wraps
    around its event loop (:mod:`repro.service` hands it a
    ``call_soon_threadsafe`` bridge, so records emitted from sweep
    worker threads land on subscriber queues without the stream ever
    knowing about asyncio)."""

    def __init__(self, fn):
        self.fn = fn

    def emit(self, record: dict) -> None:
        self.fn(record)

    def close(self) -> None:
        pass


class TtyProgressSink:
    """Single-line live renderer for ``repro sweep --live`` (stderr).

    Redraws one status line per ``cell_done`` (carriage return, no
    scrollback spam) and finishes with a newline-terminated summary on
    ``sweep_end``.
    """

    def __init__(self, stream=None):
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self._width = 0

    def _line(self, text: str) -> None:
        pad = max(0, self._width - len(text))
        self.stream.write("\r" + text + " " * pad)
        self.stream.flush()
        self._width = len(text)

    def emit(self, record: dict) -> None:
        event = record.get("event")
        if event == "cell_done":
            eta = record["eta_s"]
            self._line(
                f"[{record['done']}/{record['total']}] "
                f"{record['bench']}/{record['label']} ({record['engine']}) "
                f"{record['cells_per_sec']:.2f} cells/s "
                f"eta {eta:.0f}s cache {record['cache_hit_ratio']:.0%}"
            )
        elif event == "sweep_end":
            self._line(
                f"[{record['total']}/{record['total']}] done: "
                f"{record['simulated']} simulated, {record['cached']} cached "
                f"in {record['wall_s']:.1f}s"
            )
            self.stream.write("\n")
            self.stream.flush()

    def close(self) -> None:
        pass


def validate_progress_records(records) -> list[str]:
    """Check a progress stream against :data:`PROGRESS_SCHEMA`; [] = valid.

    Beyond per-record shape: sequence numbers contiguous from 0, the
    stream opens with ``sweep_begin`` and closes with ``sweep_end``,
    ``cell_done.done`` counts 1..total exactly once each, and every
    done cell is attributed to a known engine and source.
    """
    problems: list[str] = []
    records = list(records)
    if not records:
        return ["empty stream"]
    done_seen: list[int] = []
    total = None
    for i, record in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        if record.get("seq") != i:
            problems.append(f"{where}: seq {record.get('seq')!r}, expected {i}")
        event = record.get("event")
        spec = PROGRESS_SCHEMA.get(event)
        if spec is None:
            problems.append(f"{where}: unknown event {event!r}")
            continue
        for name, types in spec.items():
            value = record.get(name)
            if not isinstance(value, types) or isinstance(value, bool):
                problems.append(
                    f"{where}: field {name!r} = {value!r} is not "
                    f"{'/'.join(t.__name__ for t in types)}"
                )
        if event == "sweep_begin":
            total = record.get("total")
        elif event == "cell_done":
            done_seen.append(record.get("done"))
            if record.get("engine") not in CELL_ENGINES:
                problems.append(
                    f"{where}: engine {record.get('engine')!r} "
                    f"not in {CELL_ENGINES}"
                )
            if record.get("source") not in CELL_SOURCES:
                problems.append(
                    f"{where}: source {record.get('source')!r} "
                    f"not in {CELL_SOURCES}"
                )
    if records[0].get("event") != "sweep_begin":
        problems.append("stream does not open with sweep_begin")
    if records[-1].get("event") != "sweep_end":
        problems.append("stream does not close with sweep_end")
    if total is not None and sorted(done_seen) != list(range(1, total + 1)):
        problems.append(
            f"cell_done.done values {sorted(done_seen)} are not 1..{total}"
        )
    return problems


def validate_progress_jsonl(lines) -> list[str]:
    """Parse JSONL lines and validate (:func:`validate_progress_records`)."""
    records = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            return [f"line {i + 1}: invalid JSON ({exc})"]
    return validate_progress_records(records)


# -- whole-sweep Chrome trace -------------------------------------------------


def fleet_chrome_trace(report, label: str = "sweep") -> dict:
    """A Chrome trace-event document with one lane per worker process.

    ``report`` is a :class:`FleetReport` or its payload dict. Each
    simulated cell becomes a complete (``X``) event on its worker's
    lane, spanning the cell's wall time (timestamps are seconds from
    the first cell's start, reported in the microsecond ``ts`` field);
    cache-served cells appear as instant events on a ``cache`` lane.
    Validates against :func:`repro.obs.chrome.validate_chrome_trace`.
    """
    payload = report.to_payload() if isinstance(report, FleetReport) else report
    cells = payload["cells"]
    pids = sorted(
        {c["worker"] for c in cells
         if c.get("worker") is not None and c.get("source") != SOURCE_CACHE}
    )
    lanes = {pid: tid for tid, pid in enumerate(pids)}
    cache_tid = len(pids)
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": label}},
    ]
    for pid in pids:
        events.append({"ph": "M", "name": "thread_name", "pid": 0,
                       "tid": lanes[pid], "args": {"name": f"worker {pid}"}})
    events.append({"ph": "M", "name": "thread_name", "pid": 0,
                   "tid": cache_tid, "args": {"name": "cache"}})
    starts = [c["t_start"] for c in cells if _is_number(c.get("t_start"))]
    t0 = min(starts) if starts else 0.0
    for cell in cells:
        name = f"{cell['bench']}/{cell['label']}"
        ts = (cell["t_start"] - t0) * 1e6 if _is_number(cell.get("t_start")) else 0.0
        if cell.get("source") == SOURCE_CACHE:
            events.append({"ph": "i", "s": "t", "name": name, "pid": 0,
                           "tid": cache_tid, "ts": ts,
                           "args": {"source": SOURCE_CACHE}})
            continue
        args = {"engine": cell.get("engine") or "unknown",
                "source": cell.get("source") or "unknown"}
        if cell.get("fallback_reason"):
            args["fallback_reason"] = cell["fallback_reason"]
        events.append({
            "ph": "X", "name": name, "pid": 0,
            "tid": lanes.get(cell.get("worker"), cache_tid), "ts": ts,
            "dur": max(0.0, float(cell.get("wall_s") or 0.0)) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- snapshot extraction (the `repro metrics` CLI) ----------------------------


def extract_snapshot(doc) -> dict:
    """The metric snapshot inside a JSON document, wherever it lives.

    Accepts a fleet-report payload (``aggregate``), a traced-run
    snapshots file or result dict (``result.metrics`` / ``metrics``),
    or a bare ``{name: value}`` snapshot. Raises ``ValueError`` when no
    snapshot can be found.
    """
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    if isinstance(doc.get("aggregate"), dict):
        return doc["aggregate"]
    result = doc.get("result")
    if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
        return result["metrics"]
    if isinstance(doc.get("metrics"), dict):
        return doc["metrics"]
    if doc and all(not isinstance(v, (list,)) for v in doc.values()):
        return doc
    raise ValueError(
        "no metric snapshot found (expected a fleet report, a traced-run "
        "payload, or a bare snapshot dict)"
    )


# -- CLI validation entry point -----------------------------------------------


def main(argv=None) -> int:
    """Validate fleet artifacts: ``python -m repro.obs.fleet [options]``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="validate fleet reports and progress JSONL streams"
    )
    parser.add_argument("--report", action="append", default=[],
                        metavar="FILE", help="FleetReport payload JSON")
    parser.add_argument("--progress", action="append", default=[],
                        metavar="FILE", help="progress JSONL stream")
    args = parser.parse_args(argv)
    if not args.report and not args.progress:
        parser.error("nothing to validate (pass --report and/or --progress)")
    failed = False
    for path in args.report:
        with open(path) as f:
            try:
                doc = json.load(f)
            except ValueError as exc:
                print(f"{path}: invalid JSON ({exc})", file=sys.stderr)
                failed = True
                continue
        problems = validate_fleet_payload(doc)
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"{path}: valid fleet report ({doc['total']} cells, "
                  f"{len(doc['aggregate'])} aggregated metrics)")
    for path in args.progress:
        with open(path) as f:
            problems = validate_progress_jsonl(f)
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"{path}: valid progress stream")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
