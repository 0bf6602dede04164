"""Trace-driven timing model of the secure processor's memory system.

Reproduces the performance methodology of the paper's section 6:

* timely but **non-precise** integrity verification — Merkle/MAC fetches
  consume bus bandwidth and L2 space but never stall retirement;
* counter-mode decryption is off the critical path **iff** the block's
  counter is found in the counter cache at miss time; otherwise the pad
  cannot be generated until the counter block arrives, exposing AES
  latency;
* Merkle-tree nodes are cached in the **shared L2** (the pollution effect
  of Figure 9); BMT caches only tree nodes — per-block data MACs are
  fetched but never cached (section 5.2);
* every off-chip transfer serializes over one memory bus whose occupancy
  gives Figure 10b's utilization.

The core is deliberately simple — an out-of-order core is abstracted to
an issue width plus a stall-overlap factor — because every effect the
paper reports is a *memory-system* effect. The traffic rules live in
one place, the per-miss walk of :mod:`repro.fastpath.walk`.
"""

from __future__ import annotations

from ..core.config import MachineConfig
from .. import fastpath, obs
from ..core.machine import plan_layout
from ..mem.bus import MemoryBus
from ..mem.cache import SetAssociativeCache
from ..obs.adapters import register_simulator, sim_result_fields
from ..schemes import encryption_scheme, integrity_scheme
from ..obs.registry import MetricsRegistry
from .results import SimResult
from .trace import Trace

_OCCUPANCY_SAMPLE_PERIOD = 64  # events between L2 occupancy samples

# Version tag of the timing model, keyed into the evaluation's on-disk
# result cache (repro.evalx.parallel). Bump on any change that can alter
# a SimResult for an unchanged (trace, MachineConfig) pair — the cache
# also fingerprints the source of the timing-critical modules, so this
# tag mainly documents intentional model revisions.
MODEL_VERSION = "2"


def run_label(config: MachineConfig, label: str | None) -> str:
    """The ``config_label`` a run asked for ``label`` reports."""
    return label or f"{config.encryption}+{config.integrity}"


class TimingSimulator:
    """Runs traces against one machine configuration.

    Every ``run()`` is a walk, then a replay, through one clock
    (:mod:`repro.fastpath.compiled`); :func:`repro.fastpath.execute`
    picks how the walk is made. The memoized replay (engine
    ``compiled``, the default for cold runs) replays a lowering
    memoized on the trace and installs its final cache contents; a live
    run (engine ``reference``) walks this simulator's own caches and
    replays that walk, serving warm caches, a deferred-update tree, an
    armed sanitizer, an obs session and ``REPRO_FASTPATH=0``. Both walk
    every L2 miss with the one per-miss walk
    (:func:`repro.fastpath.walk.miss_walk`) and replay the identical
    arithmetic in the identical order, so results — including the
    committed figure-6 golden sweep — are byte-identical whichever
    serves the run.
    """

    __slots__ = (
        "config",
        "overlap",
        "layout",
        "enc",
        "uses_counter_cache",
        "_serial_decrypt",
        "_cb_span",
        "_ctr_base",
        "integ",
        "_walks_tree",
        "_tree_covers_data",
        "_uses_data_macs",
        "_walk_bases",
        "_arity",
        "_covered_start",
        "_mac_base",
        "_mac_bytes",
        "_cache_data_macs",
        "_deferred_updates",
        "_update_batch",
        "_update_coalesce",
        "_pending_walks",
        "tree_deferred",
        "tree_drains",
        "tree_coalesced",
        "l2",
        "counter_cache",
        "node_cache",
        "bus",
        "mem_latency",
        "l2_hit_latency",
        "aes_latency",
        "mac_latency",
        "issue_width",
        "precise",
        "_verify_on_path",
        "demand_accesses",
        "demand_misses",
        "exposed_cycles",
        "counter_accesses",
        "counter_misses",
        "registry",
        "engine_telemetry",
        "__weakref__",
    )

    def __init__(self, config: MachineConfig, overlap: float = 0.7):
        self.config = config
        self.overlap = overlap  # fraction of raw miss latency exposed as stall
        layout, geometry = plan_layout(config)
        self.layout = layout

        # Encryption model parameters, from the scheme descriptor: whether
        # a counter cache exists, how many data bytes one counter block
        # covers, and whether decryption serializes after the fetch.
        enc_scheme = encryption_scheme(config.encryption)
        self.enc = config.encryption
        self.uses_counter_cache = enc_scheme.uses_counter_cache
        self._serial_decrypt = enc_scheme.serialized_decrypt
        if self.uses_counter_cache:
            self._cb_span = enc_scheme.counter_block_span
            self._ctr_base = layout.counter_base

        # Integrity model parameters, from the scheme descriptor: whether
        # metadata walks a tree, whether that tree covers data blocks, and
        # whether per-block data MACs travel on misses and writebacks.
        integ_scheme = integrity_scheme(config.integrity)
        self.integ = config.integrity
        self._walks_tree = integ_scheme.uses_tree
        self._tree_covers_data = integ_scheme.tree_covers_data
        self._uses_data_macs = integ_scheme.uses_data_macs
        self._walk_bases: list[int] = []
        self._arity = 1
        self._covered_start = 0
        if geometry is not None:
            self._walk_bases = list(geometry.level_bases)
            self._arity = geometry.arity
            self._covered_start = geometry.covered_start
        self._mac_base = layout.mac_base
        self._mac_bytes = config.mac_bytes
        self._cache_data_macs = config.caches_data_macs

        # Deferred tree maintenance, from the descriptor's update policy
        # (the per-miss walk queues, drains and coalesces the walks).
        policy = integ_scheme.update_policy
        self._deferred_updates = policy.deferred and self._walks_tree
        self._update_batch = policy.batch
        self._update_coalesce = policy.coalesce
        self._pending_walks: list[int] = []  # counter blocks owing a walk
        self.tree_deferred = 0
        self.tree_drains = 0
        self.tree_coalesced = 0

        # Hardware structures.
        l2cfg = config.l2
        l2_bytes = l2cfg.size_bytes
        tag_bytes = enc_scheme.l2_tag_overhead_bytes
        if tag_bytes:
            # Table 1's "VA storage in L2": the virtual-address scheme must
            # keep each line's virtual address alongside its physical tag
            # (virtual addresses are gone past the L1). Model the SRAM cost
            # as capacity lost to the per-line field.
            overhead = config.block_size / (config.block_size + tag_bytes)
            l2_bytes = int(l2_bytes * overhead) // (l2cfg.assoc * config.block_size)
            l2_bytes *= l2cfg.assoc * config.block_size
        self.l2 = SetAssociativeCache(l2_bytes, l2cfg.assoc, config.block_size, "L2")
        cccfg = config.counter_cache
        self.counter_cache = SetAssociativeCache(
            cccfg.size_bytes, cccfg.assoc, config.block_size, "counter"
        )
        self.node_cache = None
        if config.node_cache is not None:
            ncfg = config.node_cache
            self.node_cache = SetAssociativeCache(
                ncfg.size_bytes, ncfg.assoc, config.block_size, "nodes"
            )
        self.bus = MemoryBus(config.bus_cycles_per_block)
        self.mem_latency = config.memory_latency
        self.l2_hit_latency = l2cfg.hit_latency
        self.aes_latency = config.aes_latency
        self.mac_latency = config.mac_latency
        self.issue_width = config.issue_width
        self.precise = config.precise_verification
        self._verify_on_path = self.precise and integ_scheme.verifies

        # Demand-stream statistics (the paper's local L2 miss rate counts
        # only demand data accesses, not metadata lookups).
        self.demand_accesses = 0
        self.demand_misses = 0
        self.exposed_cycles = 0.0
        self.counter_accesses = 0
        self.counter_misses = 0

        # Observability. The registry always exists: its gauges are
        # pull-model bindings over the stats above, read only when a
        # snapshot is taken, so registration costs nothing per event.
        # ``engine_telemetry`` attributes each run() to the engine that
        # executed it (one attribute bump per run, never per event).
        self.engine_telemetry = fastpath.EngineTelemetry()
        self.registry = MetricsRegistry()
        register_simulator(self.registry, self)

    # -- main loop ------------------------------------------------------------------------------

    def _reset_stats(self) -> None:
        """Zero statistics while keeping all warm state (caches, bus clock).

        Also rebases the metrics registry: push-model metrics (the miss
        latency histogram) zero out, and the bound gauges track the fresh
        stats objects automatically because they close over the owning
        caches/bus, not the stats instances being replaced.
        """
        self.l2.reset_stats()
        self.counter_cache.reset_stats()
        if self.node_cache is not None:
            self.node_cache.reset_stats()
        self.bus.reset_stats()
        self.demand_accesses = 0
        self.demand_misses = 0
        self.exposed_cycles = 0.0
        self.counter_accesses = 0
        self.counter_misses = 0
        # Counters zero; the pending-walk queue survives — it is model
        # *state* (walks still owed to the bus), not a statistic.
        self.tree_deferred = 0
        self.tree_drains = 0
        self.tree_coalesced = 0
        self.registry.reset()

    def reset_cold(self) -> None:
        """Return the simulator to its just-constructed (cold) state.

        The sanctioned warm-reuse entry point (:mod:`repro.service`
        keeps a pool of constructed simulators and calls this between
        tenants): caches empty with no writebacks charged, bus clock and
        statistics at zero, the integrity scheme's timing state
        discarded through its :meth:`~repro.schemes.base.IntegrityScheme.
        reset_timing_state` hook. After this call ``run()`` behaves
        byte-identically to a fresh ``TimingSimulator(config)`` — in
        particular the compiled trace replay re-engages (it bows out of
        warm caches), and any compiled lowerings memoized on Trace
        objects are still valid because they never depend on machine
        state. Warm reuse *without* this call is intentionally
        unsupported for result-serving: warm caches change miss counts
        (see tests/sim/test_warm_reuse.py).

        Engine telemetry is cumulative across resets — which engine ran
        is execution-mode metadata, not model state, and pool operators
        want the totals.
        """
        scheme = integrity_scheme(self.integ)
        if not scheme.warm_reuse_sound:
            raise RuntimeError(
                f"integrity scheme {self.integ!r} declares warm reuse unsound; "
                "build a fresh TimingSimulator instead of resetting this one"
            )
        self.l2.clear()
        self.counter_cache.clear()
        if self.node_cache is not None:
            self.node_cache.clear()
        self.bus.reset()
        scheme.reset_timing_state(self)
        self._reset_stats()

    def run(self, trace: Trace, label: str | None = None, warmup: float = 0.25,
            collect_metrics: bool = False) -> SimResult:
        """Simulate the trace; the first ``warmup`` fraction of events warms
        the caches (the paper fast-forwards 5B instructions) and is excluded
        from every reported statistic, including cycle counts.

        A simulator can ``run()`` several traces back to back to model warm
        reuse (e.g. context switches): caches stay warm across runs, but
        the clock restarts at 0.0 — so bus time is rebased to match, lest
        every early transfer queue behind the previous trace's phantom
        traffic, and all statistics restart from zero.

        ``collect_metrics=True`` attaches the end-of-run registry snapshot
        to ``SimResult.metrics``. When a :mod:`repro.obs` session is
        active, live hooks (event tracing, interval samples, phase
        attribution) are armed at the warmup boundary — the tracer clock
        is rebased there, so warmup activity never appears in the measured
        timeline. :func:`repro.fastpath.execute` picks the path: the
        memoized replay when no session is active, the fast-path gate is
        on and the replay can serve the run, a live run otherwise; both
        produce bit-identical results.
        """
        self.bus.rebase(0.0)
        self._reset_stats()
        now, measured_from, measured_instructions = fastpath.execute(
            self, trace, warmup, _OCCUPANCY_SAMPLE_PERIOD, obs.session()
        )

        measured_cycles = now - measured_from
        snapshot = self.registry.snapshot()
        # SimResult.metrics is the *model* metric snapshot: identical for
        # the same (trace, config) no matter which engine executed the
        # run or how a sweep distributed cells over workers. The engine.*
        # telemetry gauges are execution-mode metadata (which engine ran,
        # memo hit rates) and so are excluded here; fleet capture
        # (repro.obs.fleet.capture_cell) reads the full snapshot instead.
        metrics = {}
        if collect_metrics:
            metrics = {name: value for name, value in snapshot.items()
                       if not name.startswith("engine.")}
        return SimResult(
            name=trace.name,
            config_label=run_label(self.config, label),
            cycles=measured_cycles,
            instructions=measured_instructions,
            metrics=metrics,
            **sim_result_fields(snapshot, measured_cycles),
        )


def simulate(trace: Trace, config: MachineConfig, overlap: float = 0.7, label: str | None = None) -> SimResult:
    """One-shot convenience: fresh simulator, one trace."""
    return TimingSimulator(config, overlap=overlap).run(trace, label=label)
