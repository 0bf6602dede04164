"""Registry adapters: bind existing stats objects into a MetricsRegistry.

The hot paths keep mutating their own cheap dataclass counters
(:class:`~repro.mem.cache.CacheStats`, :class:`~repro.mem.bus.BusStats`,
:class:`~repro.osmodel.kernel.KernelStats`, ...) exactly as before —
these adapters register *pull-model* gauges over them, so registration
costs nothing per simulated event and a snapshot reads the live values.
This is the one sanctioned route from a ``*Stats`` object into reported
numbers; the OBS001 lint rule flags direct stats mutation anywhere else.

``sim_result_fields`` derives every statistics field of a
:class:`~repro.sim.results.SimResult` from a registry snapshot — the
simulator builds its results *through* the registry, so the aggregate a
figure plots and the interval samples a timeline plots can never
disagree.
"""

from __future__ import annotations

import weakref

from ..mem.cache import CODE, COUNTER, DATA, MAC, MERKLE

# Fixed bucket edges (cycles) for the demand-miss latency histogram:
# deterministic across runs and machines by construction.
MISS_LATENCY_EDGES = (50, 100, 150, 200, 300, 400, 600, 800, 1200, 1600)

_LINE_CLASSES = (DATA, CODE, COUNTER, MERKLE, MAC)


def register_cache(registry, cache, prefix: str):
    """Bind a :class:`SetAssociativeCache`'s stats and occupancy."""
    scope = registry.scoped(prefix)
    scope.bind("hits", lambda: cache.stats.hits)
    scope.bind("misses", lambda: cache.stats.misses)
    scope.bind("writebacks", lambda: cache.stats.writebacks)
    scope.bind("miss_rate", lambda: cache.stats.miss_rate)
    for cls in _LINE_CLASSES:
        scope.bind(f"occupancy.{cls}",
                   lambda c=cls: cache.stats.occupancy_fraction(c))
        scope.bind(f"lines.{cls}", lambda c=cls: cache.lines_of_class(c))
    scope.bind("lines.free", lambda: cache.num_lines - cache.occupied_lines)
    return scope


def register_bus(registry, bus, prefix: str = "bus"):
    """Bind a :class:`MemoryBus`'s transfer and occupancy statistics."""
    scope = registry.scoped(prefix)
    scope.bind("transfers", lambda: bus.stats.transfers)
    scope.bind("busy_cycles", lambda: bus.stats.busy_cycles)
    scope.bind("queue_cycles", lambda: bus.stats.queue_cycles)
    scope.bind("transfers_by_kind", lambda: bus.stats.transfers_by_kind)
    return scope


def register_simulator(registry, sim):
    """Wire a :class:`TimingSimulator`'s structures into its registry.

    Gauges close over the *owning objects* (cache, bus, simulator), not
    their stats instances — ``reset_stats`` swaps the stats objects out
    and the bindings must follow. The simulator owns its registry, so
    its gauges see it through a weak proxy: strong closures would make
    simulator and registry a reference cycle, which only the cyclic
    collector frees, with every cache set hanging off it.
    """
    sim = weakref.proxy(sim)
    scope = registry.scoped("sim")
    scope.bind("demand_accesses", lambda: sim.demand_accesses)
    scope.bind("demand_misses", lambda: sim.demand_misses)
    scope.bind("exposed_decrypt_cycles", lambda: sim.exposed_cycles)
    scope.bind("counter_accesses", lambda: sim.counter_accesses)
    scope.bind("counter_misses", lambda: sim.counter_misses)
    if sim._deferred_updates:
        # Deferred-maintenance gauges only when the scheme's policy
        # actually defers — eager schemes keep their snapshot shape.
        scope.bind("tree_deferred_walks", lambda: sim.tree_deferred)
        scope.bind("tree_drains", lambda: sim.tree_drains)
        scope.bind("tree_coalesced_walks", lambda: sim.tree_coalesced)
        scope.bind("tree_pending_walks", lambda: len(sim._pending_walks))
    registry.histogram("sim.miss_latency", MISS_LATENCY_EDGES)
    register_cache(registry, sim.l2, "l2")
    register_cache(registry, sim.counter_cache, "counter_cache")
    if sim.node_cache is not None:
        register_cache(registry, sim.node_cache, "node_cache")
    register_bus(registry, sim.bus)
    register_engine_telemetry(registry, sim)
    return registry


def register_engine_telemetry(registry, sim, prefix: str = "engine"):
    """Bind a simulator's engine-selection telemetry.

    The engine code (:mod:`repro.fastpath`, :meth:`TimingSimulator.run`)
    mutates the :class:`~repro.fastpath.EngineTelemetry` it owns — one
    attribute bump per run — and this adapter is the one sanctioned
    route from those counts into the registry (and thus into fleet
    snapshots, the Prometheus exposition, and progress records); the
    OBS002 lint rule flags registry writes from engine code directly.
    Gauges resolve the telemetry through the simulator on every read
    (:func:`register_simulator` passes its weak proxy), matching the
    owning-object discipline above.
    """
    scope = registry.scoped(prefix)
    scope.bind("runs.compiled", lambda: sim.engine_telemetry.compiled)
    scope.bind("runs.reference", lambda: sim.engine_telemetry.reference)
    scope.bind("fallback_reasons", lambda: dict(sim.engine_telemetry.fallbacks))
    memo = scope.scoped("lowering_memo")
    memo.bind("hits", lambda: sim.engine_telemetry.lowering_hits)
    memo.bind("misses", lambda: sim.engine_telemetry.lowering_misses)
    memo.bind("staged", lambda: sim.engine_telemetry.lowering_staged)
    memo.bind("hit_rate", lambda: sim.engine_telemetry.lowering_hit_rate)
    clock = scope.scoped("clock_memo")
    clock.bind("hits", lambda: sim.engine_telemetry.clock_hits)
    clock.bind("records", lambda: sim.engine_telemetry.clock_records)
    return scope


def register_kernel(registry, kernel, prefix: str = "kernel"):
    """Bind an :class:`~repro.osmodel.kernel.Kernel`'s paging stats."""
    scope = registry.scoped(prefix)
    for name in ("page_faults", "demand_zero_fills", "swap_ins", "swap_outs",
                 "cow_breaks", "forks", "swap_reencrypted_blocks"):
        scope.bind(name, lambda n=name: getattr(kernel.stats, n))
    return scope


def register_pad_cache(registry, owner, prefix: str = "pad_cache"):
    """Bind the keystream pad memo's hit/miss gauges.

    ``owner`` is anything exposing a ``pad_cache`` attribute — an
    :class:`~repro.core.encryption.EncryptionEngine` or a
    :class:`~repro.crypto.ctr_mode.CounterModeCipher`. Gauges resolve
    the cache through the owner on every read, so a re-keying event
    (which swaps the cipher and its memo) cannot leave them reading a
    retired cache; a vanished cache reads as zeros.
    """
    scope = registry.scoped(prefix)

    def read(attr, default=0):
        cache = owner.pad_cache
        return getattr(cache, attr) if cache is not None else default

    scope.bind("hits", lambda: read("hits"))
    scope.bind("misses", lambda: read("misses"))
    scope.bind("hit_rate", lambda: read("hit_rate", 0.0))
    scope.bind("entries", lambda: len(owner.pad_cache or ()))
    return scope


def register_integrity(registry, integrity, prefix: str = "integrity"):
    """Bind an integrity verifier's verification count."""
    scope = registry.scoped(prefix)
    scope.bind("verifications", lambda: integrity.verifications)
    return scope


def register_machine(registry, machine, prefix: str = "machine"):
    """Bind a :class:`~repro.core.machine.SecureMemorySystem`'s counters.

    Access counts come from the machine itself; engine-specific gauges
    (pads generated, re-encryptions, ...) come from the machine's scheme
    descriptor via :meth:`~repro.schemes.base.EncryptionScheme.engine_stats`,
    so a registered third-party scheme publishes its own metrics without
    this module knowing its engine type.
    """
    scope = registry.scoped(prefix)
    scope.bind("reads", lambda: machine.reads)
    scope.bind("writes", lambda: machine.writes)
    if hasattr(machine.integrity, "verifications"):
        scope.bind("verifications", lambda: machine.integrity.verifications)
    for name, getter in machine.enc_scheme.engine_stats(machine.encryption).items():
        scope.bind(name, getter)
    for name, getter in machine.integ_scheme.engine_stats(machine.integrity).items():
        scope.bind(name, getter)
    if getattr(machine.encryption, "pad_cache", None) is not None:
        register_pad_cache(registry, machine.encryption, f"{prefix}.pad_cache")
    return scope


# -- SimResult derivation -----------------------------------------------------


def bus_utilization_from(snapshot: dict, total_cycles: float) -> float:
    """Utilization from a snapshot, bit-for-bit matching
    :meth:`~repro.mem.bus.BusStats.utilization`."""
    if total_cycles <= 0:
        return 0.0
    return min(1.0, snapshot["bus.busy_cycles"] / total_cycles)


def sim_result_fields(snapshot: dict, measured_cycles: float) -> dict:
    """The statistics fields of a SimResult, derived from a registry
    snapshot (identical values to the stats objects the gauges wrap)."""
    return {
        "l2_accesses": snapshot["sim.demand_accesses"],
        "l2_misses": snapshot["sim.demand_misses"],
        "l2_data_fraction": snapshot["l2.occupancy.data"],
        "l2_merkle_fraction": snapshot["l2.occupancy.merkle"] + snapshot["l2.occupancy.mac"],
        "counter_accesses": snapshot["sim.counter_accesses"],
        "counter_misses": snapshot["sim.counter_misses"],
        "bus_utilization": bus_utilization_from(snapshot, measured_cycles),
        "bus_transfers_by_kind": dict(snapshot["bus.transfers_by_kind"]),
        "exposed_decrypt_cycles": snapshot["sim.exposed_decrypt_cycles"],
    }


# -- live tracing hooks (installed by TimingSimulator.run) --------------------


class SimHooks:
    """The per-run bridge between a simulator's replay and an obs session.

    Created by the live path (:func:`repro.fastpath.compiled.execute_live`)
    when observability is enabled, armed only at the warmup boundary — so
    warmup events can never leak into the measured event stream or
    interval samples. The replay calls :meth:`miss` and :meth:`retire`
    for every measured miss: the live walk recorded the miss's tokens and
    its walk emissions in order (``records``), and each transfer's
    ``bus_grant`` is stamped with the start cycle the clock gives it, the
    running bus-free time. When disabled, none of this exists and the
    replay sees only ``None`` checks.
    """

    def __init__(self, sim, session):
        self.sim = sim
        self.tracer = session.tracer
        self.profiler = session.profiler
        self.samples = session.samples
        self.interval = max(1, int(session.interval))
        self.miss_latency = sim.registry.get("sim.miss_latency")
        self.hit_latency = sim.l2_hit_latency
        self.records = iter(())  # the replayed chunk's recorded misses
        self.grants = ()  # per token: (bus kind, duration), None for markers
        self._addr = self._write = None

    def begin(self, now: float, grants: tuple) -> None:
        """Arm at the warmup boundary: rebase trace time to the start of
        the measured interval and take the t=0 sample."""
        self.tracer.rebase(now)
        self.grants = grants
        self.sample(now, 0)

    def miss(self, now: float, start: float, decrypt: float) -> None:
        """A miss up to its retirement: the demand fetch's grant at
        ``start``, then the recorded walk in order — each transfer's grant
        as the bus frees up, each walk emission, and ``decrypt_exposed``
        at its point when ``decrypt`` cycles were exposed."""
        self._addr, self._write, record = next(self.records)
        # Token 0 (a data transfer) stands for the demand fetch.
        self._walked(now, start, (0, *record), decrypt)

    def _walked(self, now: float, bf: float, record, decrypt: float) -> None:
        # A recorded walk in order: each transfer's grant as the bus frees
        # up from ``bf``, and the walk's emissions at the event clock.
        emit = self.tracer.emit
        for item in record:
            if item is None:
                if decrypt:
                    emit("decrypt_exposed", ts=now, addr=self._addr,
                         dur=decrypt)
            elif item.__class__ is tuple:
                emit(item[0], ts=now, **item[1])
            elif self.grants[item] is not None:
                kind, dur = self.grants[item]
                emit("bus_grant", ts=bf, kind=kind, dur=dur, queued=bf - now)
                bf = bf + dur

    def drain(self, now: float, bf: float) -> None:
        """The deferred tree's end-of-run drain, recorded last: its grants
        from ``bf``, its walk emissions at ``now``."""
        self._walked(now, bf, next(self.records)[2], 0.0)

    def retire(self, now: float, raw: float, step: float) -> None:
        """The miss retired at ``now`` after ``raw`` cycles of latency, of
        which the core saw ``step``."""
        self.miss_latency.observe(raw)
        self.tracer.emit("l2_miss", ts=now, addr=self._addr, write=self._write,
                         latency=raw)
        self.profiler.add("l2_miss", step)

    def hits(self, count: int) -> None:
        """Attribute ``count`` L2 hits to their phase."""
        add, latency = self.profiler.add, self.hit_latency
        for _ in range(count):
            add("l2_hit", latency)

    def sample(self, now: float, events: int) -> None:
        """Snapshot the registry after ``events`` measured events."""
        snap = self.sim.registry.snapshot()
        snap["ts"] = self.tracer.to_trace_time(now)
        snap["events"] = events
        self.samples.append(snap)
