"""The asyncio multi-tenant sweep server.

One :class:`SweepService` owns the shared amortization state — the LRU
result tier, the disk :class:`~repro.evalx.parallel.ResultCache`, the
warm machine pool, the shared trace store — and serves any number of
concurrent client connections over a newline-delimited-JSON socket
protocol. Every line each way is one :class:`~repro.api.schema.Envelope`
(``payload_version`` / ``kind`` / ``body``); requests dispatch through
:data:`~repro.api.schema.REQUEST_TYPES`.

Connection model: requests on one connection are processed in order,
one at a time, and answered with exactly one response envelope each; a
client wanting parallelism opens more connections (connections are
cheap, the shared state behind them is the point). A connection that
sent ``subscribe`` additionally receives ``event`` envelopes — fleet
progress records from *every* running job, tagged with job id and
tenant so clients filter for their own — interleaved between responses.
Events are best effort: a subscriber that falls ``_EVENT_BACKLOG``
events behind loses the oldest of them (``status`` counts them in
``events_dropped``); responses are never dropped.

Serving a ``simulate`` cell walks the tiers cheapest-first, under
single-flight so concurrent identical requests cost one computation:

1. **lru** — the in-memory tier, wire-ready dicts at memory speed;
2. **disk** — the shared on-disk result cache (same key string);
3. **warm**/**cold** — simulate on a pooled (cold-reset) or freshly
   built machine, then fill both tiers.

A ``sweep`` is ``repro sweep`` run server-side: the whole grid goes to
:func:`~repro.evalx.parallel.run_cells` in a worker thread — serial at
``workers=1``, on a process pool otherwise — with the disk tier and the
shared trace store, so per-cell results are byte-identical to a cold
``repro sweep`` by construction. A sweep reads neither the LRU tier nor
the warm pool (a fresh machine per cell costs ~1 ms against tens of ms
of simulation); it back-fills the LRU tier from the returned grid, so
later ``simulate`` requests for swept cells answer from memory. That
byte-identity is the service's contract (the ``service-smoke`` CI job
diffs a socket-served sweep against the committed figure-6 golden), and
it is why the warm pool resets machines to cold between tenants rather
than reusing cache contents: warm caches change miss counts.

``docs/service.md`` documents the protocol and the tenancy model.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from collections import deque

from ..api import SweepRun, _sweep_axes, schema
from ..core.config import ConfigurationError, MachineConfig
from ..evalx.parallel import ResultCache, run_cells
from ..evalx.runner import config_named, grid_cells
from ..obs.fleet import CallbackProgressSink, ProgressStream
from .cache import LruResultTier, SingleFlight
from .warmpool import TraceStore, WarmMachinePool

# One envelope per line; requests are small (the largest legitimate one
# names a few dozen configs), so a modest line limit contains a
# misbehaving client. Responses go out through the writer unbounded.
_READ_LIMIT = 1 << 22


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line; ``b""`` at end of stream.

    A line longer than ``_READ_LIMIT`` is read through its newline and
    dropped, returning None, so the connection stays in step for the
    next request (``readline`` would raise ValueError and could leave
    the line's tail in the stream).
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # a last line without a newline, or b"" at EOF
    except asyncio.LimitOverrunError as exc:
        overrun = exc.consumed
    while True:
        await reader.readexactly(overrun)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.LimitOverrunError as exc:
            overrun = exc.consumed


def default_sim_slots() -> int:
    """Concurrent in-process simulations: leave a core for the loop."""
    return max(1, (os.cpu_count() or 2) - 1)


# Progress events one connection may hold queued for a subscriber that
# is not reading; past it, the oldest queued event is dropped.
_EVENT_BACKLOG = 1024


class _Outbox:
    """A connection's outgoing envelopes, written in the order queued.

    Progress events are best effort: with ``_EVENT_BACKLOG`` of them
    queued, queueing another drops the oldest queued event. Responses
    are never dropped, and a drop never reorders the rest, so a response
    still follows every kept event of its job. One pump drains it
    (``get``, then ``task_done`` once the envelope is written); ``join``
    waits until everything queued was written or dropped.
    """

    def __init__(self):
        self._items: deque = deque()  # (envelope, is_event), oldest first
        self._events = 0  # queued events
        self._unfinished = 0  # queued or being written
        self._ready = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, envelope: schema.Envelope, event: bool = False) -> bool:
        """Queue ``envelope``; True if an older event was dropped for it."""
        dropped = event and self._events >= _EVENT_BACKLOG
        if dropped:
            oldest = next(index for index, (_, queued_event)
                          in enumerate(self._items) if queued_event)
            del self._items[oldest]
            self._events -= 1
            self._unfinished -= 1
        self._items.append((envelope, event))
        self._events += event
        self._unfinished += 1
        self._idle.clear()
        self._ready.set()
        return dropped

    async def get(self) -> schema.Envelope:
        while not self._items:
            self._ready.clear()
            await self._ready.wait()
        envelope, event = self._items.popleft()
        self._events -= event
        return envelope

    def task_done(self) -> None:
        self._unfinished -= 1
        if not self._unfinished:
            self._idle.set()

    async def join(self) -> None:
        await self._idle.wait()


class _Connection:
    """Per-connection state: tenant identity, subscription, outbox."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.tenant = "anon"
        self.subscribed = False
        self.outbox = _Outbox()

    def send(self, envelope: schema.Envelope) -> None:
        self.outbox.put(envelope)


class SweepService:
    """The shared simulation state behind one listening socket.

    ``cache_dir`` enables the disk tier (shared with any concurrent
    ``repro sweep --cache-dir`` on the same directory); ``sim_slots``
    bounds concurrent in-process simulations; ``sweep_jobs`` bounds
    concurrent process-pool grid jobs (each spawns its own pool).
    """

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        lru_capacity: int = 4096,
        pool_capacity: int = 8,
        trace_capacity: int = 8,
        sim_slots: int | None = None,
        sweep_jobs: int = 1,
    ):
        self.lru = LruResultTier(lru_capacity)
        self.disk = ResultCache(cache_dir) if cache_dir is not None else None
        self.pool = WarmMachinePool(pool_capacity)
        self.traces = TraceStore(trace_capacity)
        self.flight = SingleFlight()
        self._sim_gate = asyncio.Semaphore(sim_slots or default_sim_slots())
        self._sweep_gate = asyncio.Semaphore(sweep_jobs)
        self._trace_gate = asyncio.Semaphore(1)  # obs sessions are ambient
        self._jobs = itertools.count(1)
        self._connections: set[_Connection] = set()
        self._server: asyncio.base_events.Server | None = None
        self._stopping = asyncio.Event()
        self.started = time.perf_counter()
        self.requests = 0
        self.errors = 0
        self.events_dropped = 0  # progress events no subscriber read in time
        # simulate answers by tier; "pool" counts cells answered by a
        # grid sweep, whatever its worker count.
        self.served = {"lru": 0, "disk": 0, "warm": 0, "cold": 0, "pool": 0}

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=_READ_LIMIT
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "start() first"
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.start_serving()
            await self._stopping.wait()

    def stop(self) -> None:
        self._stopping.set()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        pump = asyncio.ensure_future(self._pump_outbox(conn))
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                self.requests += 1
                try:
                    if line is None:
                        raise schema.SchemaError(
                            f"request line exceeds the {_READ_LIMIT}-byte limit")
                    request = schema.request_from_wire(schema.wire_decode(line.decode()))
                    response = await self._dispatch(conn, request)
                except (schema.SchemaError, ConfigurationError, ValueError) as exc:
                    self.errors += 1
                    response = schema.error_envelope(str(exc))
                conn.send(response)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown (shutdown request) cancels connection tasks
            # mid-read; end the connection quietly rather than letting the
            # stream protocol log the cancellation as an error.
            pass
        finally:
            self._connections.discard(conn)
            try:
                await conn.outbox.join()
                pump.cancel()
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, OSError):
                # A client gone mid-teardown (or loop shutdown racing the
                # close) is an ordinary end of connection, not an error.
                pump.cancel()

    async def _pump_outbox(self, conn: _Connection) -> None:
        while True:
            envelope = await conn.outbox.get()
            try:
                conn.writer.write(schema.wire_encode(envelope).encode() + b"\n")
                await conn.writer.drain()
            except (ConnectionResetError, OSError):
                self._connections.discard(conn)
            finally:
                conn.outbox.task_done()

    def _broadcast(self, job: int, tenant: str, record: dict) -> None:
        """Fan one progress record out to every subscribed connection."""
        for conn in list(self._connections):
            if conn.subscribed and conn.outbox.put(
                    schema.event_envelope(record, job=job, tenant=tenant),
                    event=True):
                self.events_dropped += 1

    # -- request dispatch ----------------------------------------------------

    async def _dispatch(self, conn: _Connection, request) -> schema.Envelope:
        if isinstance(request, schema.HelloRequest):
            conn.tenant = request.tenant
            return schema.ok_envelope(tenant=conn.tenant, server="repro.service")
        if isinstance(request, schema.PresetsRequest):
            from ..api import preset_names

            return schema.presets_envelope(preset_names(full=request.full))
        if isinstance(request, schema.SubscribeRequest):
            conn.subscribed = request.progress
            return schema.ok_envelope(subscribed=conn.subscribed)
        if isinstance(request, schema.StatusRequest):
            return schema.status_envelope(self.status())
        if isinstance(request, schema.ShutdownRequest):
            self.stop()
            return schema.ok_envelope(stopping=True)
        if isinstance(request, schema.SimulateRequest):
            return await self._simulate(conn, request)
        if isinstance(request, schema.SweepRequest):
            return await self._sweep(conn, request)
        if isinstance(request, schema.PrecompileRequest):
            return await self._precompile(request)
        if isinstance(request, schema.TraceRequest):
            return await self._trace(request)
        raise schema.SchemaError(f"unhandled request kind {request.kind!r}")

    # -- the per-cell tiered path --------------------------------------------

    async def _cell_record(self, workload: str, config: MachineConfig,
                           label: str, events: int, overlap: float,
                           warmup: float, metrics: bool) -> tuple[dict, str, str]:
        """Resolve one cell through lru -> disk -> simulate.

        Returns (wire-ready result dict, served_from, engine): the tier
        that answered (``lru``/``disk``/``warm``/``cold``) and the
        execution-engine attribution for progress records (``cached``
        for the cache tiers). Runs under single-flight on the cell's
        cache key, so concurrent identical requests — same tenant or
        not — cost exactly one computation.
        """
        digest = await asyncio.to_thread(self.traces.digest, workload, events)
        key = ResultCache.key_for(digest, config, overlap, warmup, metrics=metrics)

        async def resolve() -> tuple[dict, str, str]:
            record = self.lru.get(key)
            if record is not None:
                return record, "lru", "cached"
            if self.disk is not None:
                hit = await asyncio.to_thread(self.disk.get, key)
                if hit is not None:
                    record = hit.to_dict()
                    self.lru.put(key, record)
                    return record, "disk", "cached"

            def compute(sim) -> tuple[dict, str]:
                # The whole computation is one worker hop.
                trace = self.traces.get(workload, events)
                result = sim.run(trace, label=label, warmup=warmup,
                                 collect_metrics=metrics)
                record = result.to_dict()
                if self.disk is not None:
                    self.disk.put(key, result)
                return record, sim.engine_telemetry.last_engine or "reference"

            async with self._sim_gate:
                reused_before = self.pool.reused
                sim = self.pool.acquire(config, overlap)
                warm = self.pool.reused > reused_before
                try:
                    record, engine = await asyncio.to_thread(compute, sim)
                finally:
                    self.pool.release(sim)
            self.lru.put(key, record)
            return record, "warm" if warm else "cold", engine

        record, source, engine = await self.flight.run(key, resolve)
        self.served[source] = self.served.get(source, 0) + 1
        if record["config_label"] != label:
            # The key leaves the label out, so the lru and disk tiers (and
            # a coalesced flight) may answer under another label of the
            # same config; the record is shared, so stamp a copy.
            record = {**record, "config_label": label}
        return record, source, engine

    async def _simulate(self, conn: _Connection,
                        request: schema.SimulateRequest) -> schema.Envelope:
        config, label = self._resolve(request.config)
        job = next(self._jobs)
        record, source, _engine = await self._cell_record(
            request.workload, config, request.label or label, request.events,
            request.overlap, request.warmup, request.metrics,
        )
        return schema.result_envelope(
            record, served_from=source, job=job, tenant=conn.tenant,
            workload=request.workload, config=request.config,
        )

    # -- grid sweeps ---------------------------------------------------------

    async def _sweep(self, conn: _Connection,
                     request: schema.SweepRequest) -> schema.Envelope:
        """The whole grid through ``run_cells`` in a worker thread — the
        engine behind ``repro sweep``, serial at ``workers=1`` and pooled
        otherwise — over the shared disk tier and trace store."""
        labels, benches = _sweep_axes(request.configs, request.benchmarks)
        job = next(self._jobs)
        loop = asyncio.get_running_loop()
        tenant = conn.tenant

        def forward(record: dict) -> None:
            # Records come from the sweep thread (and run_cells' queue-
            # drain thread): marshal onto the loop. call_soon_threadsafe
            # is FIFO, so a job's events precede its response — the
            # to_thread completion lands behind them in the same queue.
            loop.call_soon_threadsafe(self._broadcast, job, tenant, record)

        stream = ProgressStream([CallbackProgressSink(forward)])
        try:
            async with self._sweep_gate:
                computed = await asyncio.to_thread(
                    run_cells,
                    grid_cells(labels, request.mac_bits, benches),
                    events=request.events,
                    workers=request.workers,
                    cache=self.disk,
                    overlap=request.overlap,
                    warmup=request.warmup,
                    trace_provider=lambda bench: self.traces.get(bench, request.events),
                    metrics=request.metrics,
                    live=stream,
                )
        finally:
            stream.close()
        self.served["pool"] += len(computed)
        # Back-fill the memory tier so repeats of these cells — from any
        # tenant — are served at memory speed without touching the disk.
        # One digest per benchmark: a full grid cycles more benchmarks
        # than the trace store holds, so per-cell lookups would rebuild
        # an evicted trace for nearly every cell.
        digests: dict[str, str] = {}
        for cell, result in computed.items():
            if cell.bench not in digests:
                digests[cell.bench] = await asyncio.to_thread(
                    self.traces.digest, cell.bench, request.events)
            key = ResultCache.key_for(digests[cell.bench], cell.config,
                                      request.overlap, request.warmup,
                                      metrics=request.metrics)
            self.lru.put(key, result.to_dict())
        grid = {cell.key: result for cell, result in computed.items()}
        return schema.sweep_envelope(SweepRun(
            grid=grid, runner=None, labels=labels, benchmarks=benches,
            events=request.events,
        ).to_payload())

    # -- trace / precompile --------------------------------------------------

    async def _precompile(self, request: schema.PrecompileRequest) -> schema.Envelope:
        from ..api import precompile

        config, _ = self._resolve(request.config)
        trace = await asyncio.to_thread(self.traces.get, request.workload,
                                        request.events)
        async with self._sim_gate:
            summary = await asyncio.to_thread(
                precompile, trace, config, events=request.events
            )
        return schema.ok_envelope(
            op="precompile", workload=request.workload, config=request.config,
            events=summary["events"], misses=summary["misses"],
            patterns=summary["patterns"], cached=summary["cached"],
        )

    async def _trace(self, request: schema.TraceRequest) -> schema.Envelope:
        from ..api import trace as trace_api

        trace_obj = await asyncio.to_thread(self.traces.get, request.workload,
                                            request.events)
        async with self._trace_gate:  # obs sessions are process-ambient
            run = await asyncio.to_thread(
                lambda: trace_api(trace_obj, request.config,
                                  events=request.events,
                                  interval=request.interval,
                                  warmup=request.warmup)
            )
        return schema.trace_envelope(run.to_payload())

    # -- misc ----------------------------------------------------------------

    @staticmethod
    def _resolve(config_label: str) -> tuple[MachineConfig, str]:
        return config_named(config_label), config_label

    def status(self) -> dict:
        """The counters behind every tier — the ``status`` op's body."""
        status = {
            "uptime_s": time.perf_counter() - self.started,
            "requests": self.requests,
            "errors": self.errors,
            "events_dropped": self.events_dropped,
            "served": dict(self.served),
            "lru": self.lru.counts(),
            "pool": self.pool.counts(),
            "traces": self.traces.counts(),
            "flight": self.flight.counts(),
            "connections": len(self._connections),
        }
        if self.disk is not None:
            status["disk"] = self.disk.counts()
        return status
