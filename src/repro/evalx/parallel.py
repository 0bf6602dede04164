"""Parallel, disk-cached evaluation engine.

The paper's evaluation is one (21 benchmarks x 7 configurations) grid,
and every cell is independent: each simulates a deterministic trace on a
fresh :class:`~repro.sim.simulator.TimingSimulator`. This module fans
that grid out across CPU cores with a :class:`ProcessPoolExecutor` and
backs it with a persistent on-disk result cache, so

* a full sweep costs wall-clock roughly ``serial / workers``,
* worker results are **bit-identical** to serial ones (same trace, same
  model, and every value survives the JSON round-trip losslessly — a
  repo invariant the determinism tests enforce), and
* regenerating figures after an unrelated edit is near-free: the cache
  is keyed by trace digest + machine-config fingerprint + a fingerprint
  of the timing-critical source modules, so it invalidates itself
  exactly when a result could change.

Degradation is graceful: a crashed worker (or a broken pool) causes the
affected cells to be re-simulated serially in the parent; a corrupt
cache record is dropped, recomputed, and rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

from ..core.config import CacheConfig, MachineConfig
from ..obs import fleet as fleet_obs
from ..obs.log import get_logger
from ..sim.results import SimResult
from ..sim.simulator import MODEL_VERSION, TimingSimulator, run_label
from ..sim.trace import Trace
from ..workloads.spec2k import spec_trace

log = get_logger("evalx.parallel")

# Default location of the shared result cache (gitignored).
DEFAULT_CACHE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
    "benchmarks", "results", "cache",
)


def default_workers() -> int:
    """Worker count for ``workers=0`` ("use the machine"): one per core."""
    return os.cpu_count() or 1


# -- machine-config serialization ---------------------------------------------


def config_to_dict(config: MachineConfig) -> dict:
    """Plain-data form of a MachineConfig (JSON-ready, nested caches too)."""
    return asdict(config)


def config_from_dict(data: dict) -> MachineConfig:
    """Rebuild a MachineConfig from :func:`config_to_dict` output."""
    data = dict(data)
    for key in ("l1d", "l1i", "l2", "counter_cache"):
        if isinstance(data.get(key), dict):
            data[key] = CacheConfig(**data[key])
    if isinstance(data.get("node_cache"), dict):
        data["node_cache"] = CacheConfig(**data["node_cache"])
    return MachineConfig(**data)


def config_fingerprint(config: MachineConfig) -> str:
    """Stable digest of every field of a MachineConfig."""
    payload = json.dumps(config_to_dict(config), sort_keys=True)
    # Cache keying, not an integrity guarantee — unkeyed is fine here.
    return hashlib.sha256(payload.encode()).hexdigest()  # repro: allow(SEC002)


# -- model fingerprint (cache invalidation on code change) --------------------

# Fixed modules whose source can change a SimResult for an unchanged
# (trace, config): the simulator and everything it simulates with, plus
# trace generation. Scheme descriptors are NOT listed here — they are
# discovered from the registry so a newly registered scheme (even one
# defined outside the repo) invalidates the cache automatically.
_STATIC_TIMING_MODULES = (
    "repro.core.config",
    "repro.core.machine",
    "repro.fastpath",
    "repro.integrity.geometry",
    "repro.mem.bus",
    "repro.mem.cache",
    "repro.mem.layout",
    "repro.obs.adapters",
    "repro.obs.registry",
    "repro.sim.results",
    "repro.sim.simulator",
    "repro.sim.trace",
    "repro.workloads.spec2k",
    "repro.workloads.synthetic",
)


def timing_modules() -> tuple[str, ...]:
    """Every module whose source feeds the model fingerprint.

    The static core above, plus the whole :mod:`repro.schemes` package
    (walked, not hard-coded), plus the defining module of every
    *registered* scheme descriptor — so third-party schemes registered
    from outside the package are fingerprinted too — plus each
    descriptor's declared tree-engine modules
    (:meth:`~repro.schemes.base.IntegrityScheme.tree_modules`), so a
    cached cell from one tree implementation is never served after
    another implementation (or an edit to one) changes the model.
    """
    import pkgutil

    from .. import schemes

    from .. import fastpath

    names = set(_STATIC_TIMING_MODULES)
    names.add("repro.schemes")
    names.update(
        info.name for info in pkgutil.iter_modules(schemes.__path__, "repro.schemes.")
    )
    # repro.fastpath is a package (engine choice + trace pre-compiler);
    # walk it like repro.schemes so every engine module is fingerprinted.
    names.update(
        info.name for info in pkgutil.iter_modules(fastpath.__path__, "repro.fastpath.")
    )
    for scheme in schemes.registered_schemes():
        names.add(type(scheme).__module__)
        names.update(getattr(scheme, "tree_modules", tuple)())
    return tuple(sorted(names))


_model_fingerprints: dict[tuple, str] = {}


def model_fingerprint() -> str:
    """Digest of the timing model: MODEL_VERSION + registered scheme keys
    + timing-critical sources.

    Any edit to the modules of :func:`timing_modules` changes the
    fingerprint and thereby invalidates every cached result —
    conservative (comment edits also invalidate) but safe: a stale cache
    can never masquerade as a fresh simulation. Registering or removing
    a scheme re-keys the memo and changes the digest even when no
    tracked source file changed.
    """
    import importlib

    from ..schemes import encryption_keys, integrity_keys

    modules = timing_modules()
    registered = ("enc",) + encryption_keys() + ("int",) + integrity_keys()
    memo_key = (modules, registered)
    cached = _model_fingerprints.get(memo_key)
    if cached is not None:
        return cached

    h = hashlib.sha256(MODEL_VERSION.encode())  # repro: allow(SEC002)
    for key in registered:
        h.update(key.encode())
    for name in modules:
        try:
            module = importlib.import_module(name)
            source = getattr(module, "__file__", None)
        except ImportError:
            source = None
        if source is None:
            h.update(f"<no source: {name}>".encode())
            continue
        with open(source, "rb") as f:
            h.update(f.read())
    fingerprint = h.hexdigest()[:20]
    _model_fingerprints[memo_key] = fingerprint
    return fingerprint


# -- the grid -----------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One point of the evaluation grid: a benchmark under a configuration.

    ``label`` and ``mac_bits`` are reporting keys (what the figures index
    by); ``config`` is the fully-resolved machine the cell simulates —
    two cells with the same label but different configs (as in the
    sensitivity sweeps) are distinct grid points.
    """

    bench: str
    label: str
    config: MachineConfig
    mac_bits: int | None = None

    @property
    def key(self) -> tuple:
        return (self.bench, self.label, self.mac_bits)


# Worker-local trace memo: a pool worker executes many cells, typically
# cycling over few benchmarks, and a kept Trace carries its clock
# increments and compiled lowerings (repro.fastpath.compiled) with it — so sweep
# cells sharing a trace replay one lowering instead of re-generating and
# re-lowering per cell. Bounded: a grid rarely cycles more benchmarks
# than this concurrently, and each entry holds megabytes.
_worker_traces: dict[tuple, "object"] = {}
_WORKER_TRACE_CAPACITY = 8


def _worker_trace(bench: str, events: int):
    key = (bench, events)
    trace = _worker_traces.get(key)
    if trace is None:
        while len(_worker_traces) >= _WORKER_TRACE_CAPACITY:
            _worker_traces.pop(next(iter(_worker_traces)))
        trace = _worker_traces[key] = spec_trace(bench, events)
    return trace


# Worker-side progress queue: installed by the pool initializer when the
# parent streams live progress; workers put `cell_start` records on it
# the moment a cell begins simulating (the parent can only observe when
# a future *resolves*, which lags by a full cell).
_worker_queue = None


def _worker_init(queue) -> None:
    """Pool initializer: remember the parent's progress queue (or None)."""
    global _worker_queue
    _worker_queue = queue


# Worker-side result caches, one per cache root. Until workers opened
# their own cache, every `ResultCache.hits` bump a worker would have
# made was process-local and silently lost — the parent's hit ratio
# under-reported any concurrent sweep sharing the cache directory.
# `_worker_cache_delta` hands the parent counter *deltas* (including the
# construction-time stale-tmp sweep), so parent-side absorption is exact
# no matter how cells interleave across workers.
_CACHE_COUNTERS = ("hits", "misses", "writes", "corrupt", "stale_tmp")
_worker_caches: dict[str, "ResultCache"] = {}
_worker_cache_reported: dict[str, dict] = {}


def _worker_cache(root: str) -> "ResultCache":
    cache = _worker_caches.get(root)
    if cache is None:
        cache = _worker_caches[root] = ResultCache(root)
        _worker_cache_reported[root] = dict.fromkeys(_CACHE_COUNTERS, 0)
    return cache


def _worker_cache_delta(root: str) -> dict:
    """Counter movement since the last report (first call includes the
    construction-time stale-tmp sweep)."""
    cache = _worker_caches[root]
    reported = _worker_cache_reported[root]
    delta = {}
    for name in _CACHE_COUNTERS:
        value = getattr(cache, name)
        delta[name] = value - reported[name]
        reported[name] = value
    return delta


def _simulate(trace, config: MachineConfig, label: str, overlap: float,
              warmup: float, metrics: bool,
              capture: bool) -> tuple[SimResult, dict | None]:
    """Simulate one cell on a fresh machine — the one place a pool
    worker and the serial path both run a cell. With ``capture`` it
    also returns the cell's fleet record (registry snapshot, engine
    attribution, wall/CPU timings); the SimResult is the same either way.
    """
    sim = TimingSimulator(config, overlap=overlap)
    t_start = time.time()
    p_start = time.perf_counter()
    c_start = time.process_time()
    result = sim.run(trace, label=label, warmup=warmup, collect_metrics=metrics)
    record = None
    if capture:
        record = fleet_obs.capture_cell(sim)
        record.update(wall_s=time.perf_counter() - p_start,
                      cpu_s=time.process_time() - c_start,
                      t_start=t_start, t_end=time.time())
    return result, record


def _simulate_cell(payload: tuple) -> dict:
    """Worker entry point: resolve one cell, return a result envelope.

    Module-level (picklable under both fork and spawn); obtains the trace
    from the worker-local memo (regenerated on first use) — trace
    generation is seeded by benchmark name, so every process sees the
    identical event stream.

    The envelope is ``{"result": SimResult dict, "cached": bool,
    "capture": per-cell fleet record or None, "cache": counter delta or
    None}``. When the parent passed a cache root, the worker checks the
    disk cache itself first (serving records a concurrent sweep landed
    after the parent's check) and writes its fresh result directly, so
    the parent never re-serializes it; when capture is on, the envelope
    carries the registry snapshot, engine attribution, and wall/CPU
    timings of the run. The SimResult itself is never touched — capture
    rides the envelope, keeping cached records and result JSON
    byte-identical with capture on or off.
    """
    (bench, events, config, label, mac_bits, overlap, warmup, metrics,
     capture, cache_root, key) = payload
    if _worker_queue is not None:
        _worker_queue.put({"event": "cell_start", "bench": bench,
                           "label": label, "worker": os.getpid()})
    out = {"result": None, "cached": False, "capture": None, "cache": None}
    cache = None
    if cache_root is not None and key is not None:
        cache = _worker_cache(cache_root)
        hit = cache.get(key)
        if hit is not None:
            out["result"] = hit.to_dict()
            out["cached"] = True
            out["cache"] = _worker_cache_delta(cache_root)
            return out
    result, out["capture"] = _simulate(
        _worker_trace(bench, events), config, label, overlap, warmup,
        metrics, capture,
    )
    if cache is not None:
        cache.put(key, result, Cell(bench, label, config, mac_bits))
        out["cache"] = _worker_cache_delta(cache_root)
    out["result"] = result.to_dict()
    return out


# -- the persistent cache -----------------------------------------------------


def _writer_alive(tmp_name: str) -> bool:
    """Whether the process that made a ``<pid>-*.tmp`` file still runs.

    Untagged names have no known writer and count as orphans. A reused
    pid keeps a dead writer's file until that pid exits too — a leak of
    one temp file, never a deleted live write.
    """
    pid = tmp_name.partition("-")[0]
    if not pid.isdigit() or int(pid) == 0:
        return False
    try:
        os.kill(int(pid), 0)  # signal 0: an existence check, sends nothing
    except PermissionError:
        return True  # alive, owned by another user
    except (OSError, OverflowError):
        return False
    return True


class ResultCache:
    """A directory of JSON records, one per simulated grid cell.

    Records are written atomically (temp file + rename) so concurrent
    sweeps can share one cache directory; a corrupt or stale record is
    deleted and treated as a miss. Keys fold in everything a result
    depends on: the trace's content digest, the full machine config, the
    runner knobs (overlap, warmup), and the model fingerprint.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        # Counter movement absorbed from pool workers' own ResultCache
        # instances on this root (see ``absorb_worker``); kept separate
        # from this process's counts so hit ratios stay attributable.
        self.worker_hits = 0
        self.worker_misses = 0
        self.worker_writes = 0
        self.worker_corrupt = 0
        self.worker_stale_tmp = 0
        # A worker killed between mkstemp and os.replace leaves its temp
        # file behind; nothing ever references one again, so sweep them
        # here. Records themselves are immune — the rename is atomic.
        # Temp names carry the writer's pid: a live writer's file is
        # mid-put (by another thread or process) and stays.
        self.stale_tmp = 0
        for name in os.listdir(root):
            if name.endswith(".tmp") and not _writer_alive(name):
                try:
                    os.remove(os.path.join(root, name))
                except OSError:
                    continue
                self.stale_tmp += 1

    @staticmethod
    def key_for(trace_digest: str, config: MachineConfig,
                overlap: float, warmup: float, metrics: bool = False) -> str:
        # A pure function of its arguments (static so the service's LRU
        # tier can key records identically without opening a directory):
        # everything a result depends on, nothing about where it lands.
        payload = {
            "trace": trace_digest,
            "config": config_to_dict(config),
            "overlap": overlap,
            "warmup": warmup,
            "model": model_fingerprint(),
        }
        if metrics:
            # Only metric-carrying records get the extra key component, so
            # every pre-existing cache key (and record) stays valid.
            payload["metrics"] = True
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:40]  # repro: allow(SEC002)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> SimResult | None:
        path = self._path(key)
        try:
            with open(path) as f:
                record = json.load(f)
            result = SimResult.from_dict(record["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Corrupt record: drop it and recompute (it will be rewritten).
            self.corrupt += 1
            self.misses += 1
            log.warning("dropping corrupt cache record %s (%s)", path, exc)
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult, cell: Cell | None = None) -> None:
        record = {"key": key, "result": result.to_dict()}
        if cell is not None:
            # Human-readable provenance; not part of the key.
            record["cell"] = {"bench": cell.bench, "label": cell.label,
                              "mac_bits": cell.mac_bits}
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{os.getpid()}-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(record, f, sort_keys=True)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    def absorb_worker(self, delta: dict) -> None:
        """Fold one worker's counter delta into the ``worker_*`` totals.

        ``delta`` comes from ``_worker_cache_delta`` — strictly the
        movement since that worker's last report, so absorbing every
        envelope double-counts nothing.
        """
        for name in _CACHE_COUNTERS:
            setattr(self, f"worker_{name}",
                    getattr(self, f"worker_{name}") + delta.get(name, 0))

    def counts(self) -> dict:
        """Every counter (this process's and absorbed worker movement)
        as a plain dict — the cache block of a fleet report."""
        out = {name: getattr(self, name) for name in _CACHE_COUNTERS}
        for name in _CACHE_COUNTERS:
            out[f"worker_{name}"] = getattr(self, f"worker_{name}")
        return out

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".json"))


# -- the engine ---------------------------------------------------------------


def run_cells(
    cells,
    events: int,
    workers: int = 1,
    cache: ResultCache | None = None,
    overlap: float = 0.7,
    warmup: float = 0.25,
    trace_provider=None,
    metrics: bool = False,
    fleet: "fleet_obs.FleetCollector | None" = None,
    live: "fleet_obs.ProgressStream | None" = None,
) -> dict[Cell, SimResult]:
    """Simulate every cell, fanning out across ``workers`` processes.

    * ``workers <= 1`` runs serially in this process (no pool, no IPC) —
      the reference the determinism tests compare the pool against;
      ``workers == 0`` means "one per core".
    * ``cache`` short-circuits cells whose results are already on disk
      and persists fresh ones. Pool workers open their own handle on the
      same directory (serving concurrent sweeps' records, writing fresh
      results in-worker) and every counter they move is absorbed back
      into this cache's ``worker_*`` totals — nothing stays
      process-local.
    * ``trace_provider`` (bench -> Trace) supplies traces for digest
      computation; defaults to regenerating via ``spec_trace``. Callers
      with memoized traces (the Runner) pass theirs to avoid regeneration.
    * ``metrics`` attaches each cell's metrics-registry snapshot to its
      ``SimResult.metrics`` (cached under distinct keys, so metric-free
      and metric-carrying sweeps never serve each other stale records).
    * ``fleet`` (a :class:`repro.obs.fleet.FleetCollector`) collects one
      observability record per cell — registry snapshot, engine
      attribution, wall/CPU timings, worker pid — and, at sweep end, the
      finished :class:`~repro.obs.fleet.FleetReport` (``fleet.report``).
    * ``live`` (a :class:`repro.obs.fleet.ProgressStream`) receives the
      typed progress stream: ``sweep_begin``, worker-emitted
      ``cell_start`` (via the pool's queue), per-cell ``cell_done`` with
      throughput/ETA/cache-hit-ratio, ``sweep_end``.

    Fleet capture and the live stream are observers only: they never
    touch a ``SimResult``, a cache record, or a cache key, so results
    are byte-identical with either enabled or not.

    Returns {cell: SimResult}, one entry per *distinct* cell. Cells that
    simulate the same (bench, config, label) — e.g. mac_bits=None and an
    explicit override equal to the default — share one simulation. Cells
    that crash a worker are retried serially in the parent, so one bad
    cell degrades throughput, not coverage.
    """
    distinct: list[Cell] = list(dict.fromkeys(cells))
    if workers == 0:
        workers = default_workers()
    base_provider = trace_provider or (lambda bench: spec_trace(bench, events))
    # Memoize per sweep: the digest pass and the serial path then share
    # one Trace per benchmark, and with it the clock increments and the
    # compiled lowering — every serial cell on the same trace replays one
    # pre-compilation (the multiplicative evalx win; pool workers get the
    # same effect from the module-level memo above).
    trace_memo: dict[str, object] = {}

    def provider(bench: str):
        trace = trace_memo.get(bench)
        if trace is None:
            trace = trace_memo[bench] = base_provider(bench)
        return trace
    # Collapse cells that would run the identical simulation.
    twins: dict[tuple, list[Cell]] = {}
    for cell in distinct:
        twins.setdefault((cell.bench, cell.config, cell.label), []).append(cell)
    unique = [group[0] for group in twins.values()]
    results: dict[Cell, SimResult] = {}
    keys: dict[Cell, str] = {}
    digests: dict[str, str] = {}
    pending: list[Cell] = []

    # Baselines before the cache-filter pass: the sweep's wall clock and
    # the fleet report's cache delta both cover the parent's own gets.
    start = time.perf_counter()
    cache_base = cache.counts() if cache is not None else None

    for cell in unique:
        if cache is None:
            pending.append(cell)
            continue
        digest = digests.get(cell.bench)
        if digest is None:
            digest = digests[cell.bench] = provider(cell.bench).digest()
        key = keys[cell] = cache.key_for(digest, cell.config, overlap, warmup,
                                         metrics=metrics)
        hit = cache.get(key)
        if hit is not None:
            results[cell] = hit
        else:
            pending.append(cell)

    total = len(unique)
    prehits = [cell for cell in unique if cell in results]
    if cache is not None and prehits:
        log.info("result cache: %d/%d cells already on disk",
                 len(prehits), total)

    done = 0
    cached_done = 0
    capture = fleet is not None or live is not None
    if live is not None:
        live.emit("sweep_begin", total=total, workers=workers, events=events)
    if fleet is not None:
        fleet.begin(total=total, workers=workers, events=events)

    def rates() -> tuple[float, float, float]:
        elapsed = max(time.perf_counter() - start, 1e-9)
        rate = done / elapsed
        eta = (total - done) / rate if rate > 0 else 0.0
        ratio = cached_done / done if done else 0.0
        return rate, eta, ratio

    def account(cell: Cell, source: str, capture_rec: dict | None = None) -> None:
        """One cell resolved: fleet record, live stream, logging."""
        nonlocal done, cached_done
        done += 1
        if source == fleet_obs.SOURCE_CACHE:
            cached_done += 1
        engine = "cached" if source == fleet_obs.SOURCE_CACHE else "unknown"
        reason = None
        wall = 0.0
        worker = os.getpid()
        if capture_rec is not None:
            engine = capture_rec.get("engine") or engine
            reason = capture_rec.get("fallback_reason")
            wall = capture_rec.get("wall_s", 0.0)
            worker = capture_rec.get("worker", worker)
        if fleet is not None:
            record = {"bench": cell.bench, "label": cell.label,
                      "mac_bits": cell.mac_bits, "source": source,
                      "engine": engine, "fallback_reason": reason}
            if capture_rec is not None:
                record.update(capture_rec)
            else:
                record.update(t_start=time.time(), wall_s=0.0, worker=worker)
            fleet.add_cell(record)
        if live is not None:
            rate, eta, ratio = rates()
            live.emit("cell_done", bench=cell.bench, label=cell.label,
                      done=done, total=total, source=source, engine=engine,
                      fallback_reason=reason, wall_s=wall,
                      cells_per_sec=rate, eta_s=eta,
                      cache_hit_ratio=ratio, worker=worker)
        log.info("cell %d/%d: %s/%s done", done, total, cell.bench, cell.label)

    def finish(cell: Cell, result: SimResult, source: str,
               capture_rec: dict | None = None,
               worker_wrote: bool = False) -> None:
        results[cell] = result
        if cache is not None and not worker_wrote:
            cache.put(keys[cell], result, cell)
        account(cell, source, capture_rec)

    def serial(cell: Cell) -> tuple[SimResult, dict | None]:
        return _simulate(provider(cell.bench), cell.config, cell.label,
                         overlap, warmup, metrics, capture)

    def finalize() -> None:
        wall = time.perf_counter() - start
        if fleet is not None:
            if cache_base is not None:
                now = cache.counts()
                fleet.absorb_cache({name: now[name] - cache_base[name]
                                    for name in now})
            fleet.finish(wall)
        if live is not None:
            live.emit("sweep_end", total=total, simulated=done - cached_done,
                      cached=cached_done, wall_s=wall)

    def spread() -> dict[Cell, SimResult]:
        """Fan each group's one result back out to its twin cells, each
        under its own label: the label is a reporting key, not part of
        the cache key, so a record read from the disk tier or returned
        by a pool worker may carry another label of the same config."""
        for group in twins.values():
            for twin in group[1:]:
                results[twin] = results[group[0]]
        return {cell: replace(results[cell],
                              config_label=run_label(cell.config, cell.label))
                for cell in distinct}

    for cell in prehits:
        account(cell, fleet_obs.SOURCE_CACHE)

    if not pending:
        finalize()
        return spread()

    if workers <= 1:
        for cell in pending:
            result, capture_rec = serial(cell)
            finish(cell, result, fleet_obs.SOURCE_SERIAL, capture_rec)
        finalize()
        return spread()

    payloads = {
        cell: (cell.bench, events, cell.config, cell.label, cell.mac_bits,
               overlap, warmup, metrics, capture,
               cache.root if cache is not None else None, keys.get(cell))
        for cell in pending
    }
    retry: list[Cell] = []
    queue = manager = drain = None
    if live is not None:
        # Workers announce cell starts over a manager queue (the proxy is
        # picklable, so this works under spawn too); a parent-side thread
        # drains it into the stream while futures are in flight.
        import multiprocessing

        manager = multiprocessing.Manager()
        queue = manager.Queue()
        drain = threading.Thread(target=_drain_progress, args=(queue, live),
                                 daemon=True)
        drain.start()
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(pending)),
                                 initializer=_worker_init,
                                 initargs=(queue,)) as pool:
            futures = {pool.submit(_simulate_cell, payloads[cell]): cell
                       for cell in pending}
            for future, cell in futures.items():
                try:
                    envelope = future.result()
                    if cache is not None and envelope.get("cache"):
                        cache.absorb_worker(envelope["cache"])
                    source = (fleet_obs.SOURCE_CACHE if envelope["cached"]
                              else fleet_obs.SOURCE_POOL)
                    finish(cell, SimResult.from_dict(envelope["result"]),
                           source, envelope.get("capture"),
                           worker_wrote=cache is not None)
                except Exception as exc:  # worker crash / broken pool
                    log.warning("worker failed on %s/%s (%s); retrying serially",
                                cell.bench, cell.label, exc)
                    retry.append(cell)
    finally:
        if queue is not None:
            queue.put(None)
            drain.join(timeout=5.0)
            manager.shutdown()
    for cell in retry:
        result, capture_rec = serial(cell)
        finish(cell, result, fleet_obs.SOURCE_RETRY, capture_rec)
    if cache is not None and (cache.worker_hits or cache.worker_misses):
        log.info("worker cache: %d hits, %d misses, %d writes, %d corrupt, "
                 "%d stale tmp swept", cache.worker_hits, cache.worker_misses,
                 cache.worker_writes, cache.worker_corrupt,
                 cache.worker_stale_tmp)
    finalize()
    return spread()


def _drain_progress(queue, stream) -> None:
    """Forward worker progress records from the pool queue to the stream
    until the parent posts the ``None`` sentinel."""
    while True:
        try:
            record = queue.get()
        except (EOFError, OSError):
            return
        if record is None:
            return
        event = record.pop("event", None)
        if event:
            stream.emit(event, **record)
