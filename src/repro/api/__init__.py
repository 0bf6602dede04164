"""repro.api: the blessed library entry points.

One small facade over the whole reproduction, so scripts, examples, and
the ``python -m repro`` CLI all drive the library through the same four
calls (the CLI subcommands are thin wrappers over this module — the two
paths cannot drift):

* :func:`build_machine` — a booted functional
  :class:`~repro.core.machine.SecureMemorySystem` from a preset label.
* :func:`simulate` — one workload through the timing model; returns a
  :class:`~repro.sim.results.SimResult`.
* :func:`sweep` — the (benchmark x configuration) grid, optionally
  parallel and disk-cached; returns a :class:`SweepRun`.
* :func:`trace` — one workload under full observability; returns a
  :class:`TraceRun` with the Chrome trace document, event stream,
  interval snapshots, and result.

Configurations are named by *preset labels* — ``encryption[+integrity]``
over the scheme-registry keys, e.g. ``base``, ``aise+bmt``,
``global64+mt`` (see :meth:`MachineConfig.preset`); every function also
accepts a ready :class:`~repro.core.config.MachineConfig`. Workloads are
named by SPEC benchmark (``art`` ... ``sixtrack``) or synthetic
generator (``stream``/``chase``/``resident``); every function also
accepts a ready :class:`~repro.sim.trace.Trace`.

The facade also re-exports the public types and helpers a script built
on it needs (``MachineConfig``, ``SecureMemorySystem``, ``Kernel``,
``IntegrityError``, the storage model, the attack suite, ...), so
examples and downstream code import from ``repro.api`` alone — the
linter's API001 rule holds ``examples/`` to exactly that.

``docs/api.md`` documents the facade, the preset grammar, and the
deprecation policy for the pre-facade constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._lazy import lazy_exports

__all__ = [
    "build_machine",
    "simulate",
    "sweep",
    "trace",
    "load_trace",
    "precompile",
    "preset_names",
    "SweepRun",
    "TraceRun",
    # re-exported public surface (examples/docs import only repro.api)
    "AccessRecorder",
    "ConfigurationError",
    "CounterPredictor",
    "IntegrityError",
    "Kernel",
    "MachineConfig",
    "SecureMemorySystem",
    "SimResult",
    "StorageBreakdown",
    "TimingSimulator",
    "Trace",
    "breakdown_for_config",
    "run_attacks",
    "storage_breakdown",
]


# The re-exported names resolve on first use, so each entry point loads
# only the layers it runs: ``build_machine`` never loads the simulator or
# numpy, and ``repro submit`` (which needs only ``schema``) loads neither
# layer. This module's own functions import what they use locally.
__getattr__ = lazy_exports(__name__, {
    "AccessRecorder": "..sim.recorder",
    "ConfigurationError": "..core.config",
    "CounterPredictor": "..core.prediction",
    "IntegrityError": "..core.errors",
    "Kernel": "..osmodel.kernel",
    "MachineConfig": "..core.config",
    "SecureMemorySystem": "..core.machine",
    "SimResult": "..sim.results",
    "StorageBreakdown": "..core.storage",
    "TimingSimulator": "..sim.simulator",
    "Trace": "..sim.trace",
    "breakdown_for_config": "..core.storage",
    "run_attacks": "..attacks:run_all",
    "storage_breakdown": "..core.storage",
})


def preset_names(*, full: bool = False) -> tuple[str, ...]:
    """The configuration labels a client may pass as ``config``.

    By default this is the canonical set (Figure 6's labels, in
    presentation order) — the grid ``sweep`` runs when no configs are
    named, and the labels the committed golden pins. ``full=True``
    additionally surfaces every *registry-valid* ``encryption[+integrity]``
    combination (e.g. ``aise+bmt_lazy``) the way :meth:`MachineConfig.preset`
    already resolves them, so service clients can discover every legal
    preset: canonical labels first, then the extras in registry order,
    spelled with the canonical shorthands (``base``, ``mt``, ``bmt``).
    A pair is listed only if :class:`MachineConfig` accepts it, so every
    label builds both a timing simulator and a functional machine;
    ``base+bmt``, for one, has no counters for a Bonsai tree to cover.
    """
    from ..core.config import ConfigurationError, MachineConfig

    canonical = MachineConfig.preset_names()
    if not full:
        return canonical
    from ..schemes import encryption_keys, integrity_keys

    # Prefer the canonical shorthand spellings for the label text; the
    # resolved (encryption, integrity) pair is the dedup key, so a pair a
    # canonical label already covers never reappears under a raw key.
    enc_alias = {"none": "base"}
    int_alias = {"merkle": "mt", "bonsai": "bmt"}
    labels = list(canonical)
    seen = set()
    for label in canonical:
        config = MachineConfig.preset(label)
        seen.add((config.encryption, config.integrity))
    for enc in encryption_keys():
        for integ in integrity_keys():
            enc_label = enc_alias.get(enc, enc)
            label = enc_label if integ == "none" else f"{enc_label}+{int_alias.get(integ, integ)}"
            try:
                config = MachineConfig.preset(label)
            except ConfigurationError:
                continue
            pair = (config.encryption, config.integrity)
            if pair in seen:
                continue
            seen.add(pair)
            labels.append(label)
    return tuple(labels)


def _resolve_config(config) -> tuple[MachineConfig, str | None]:
    """Accept a MachineConfig or a preset label; returns (config, label)."""
    from ..core.config import MachineConfig

    if isinstance(config, MachineConfig):
        return config, None
    return MachineConfig.preset(config), config


def load_trace(workload, events: int = 60_000) -> Trace:
    """Resolve a workload name to a :class:`Trace` (passthrough for one).

    Accepts a SPEC2000 benchmark name or a synthetic generator:
    ``stream`` (sequential sweep), ``chase`` (pointer chase), or
    ``resident`` (cache-resident working set).
    """
    from ..sim.trace import Trace

    if isinstance(workload, Trace):
        return workload
    from ..workloads import synthetic
    from ..workloads.spec2k import SPEC2K_BENCHMARKS, spec_trace

    if workload in SPEC2K_BENCHMARKS:
        return spec_trace(workload, events)
    if workload == "stream":
        return synthetic.streaming_trace(events, footprint_bytes=8 << 20)
    if workload == "chase":
        return synthetic.pointer_chase_trace(events, footprint_bytes=8 << 20)
    if workload == "resident":
        return synthetic.resident_trace(events)
    raise ValueError(
        f"unknown workload {workload!r}; pass a Trace, a SPEC benchmark "
        f"({', '.join(SPEC2K_BENCHMARKS)}), or stream/chase/resident"
    )


def build_machine(preset="aise+bmt", *, boot: bool = True, **overrides) -> SecureMemorySystem:
    """A functional secure-memory system from a preset label.

    ``preset`` is an ``encryption[+integrity]`` label or a ready
    :class:`MachineConfig`; ``**overrides`` are MachineConfig fields
    (``physical_bytes=16 * 4096`` is the usual one for examples). The
    machine is booted unless ``boot=False`` (boot initializes the
    counter region and integrity tree; an unbooted machine is only
    useful for layout inspection).
    """
    from ..core.config import MachineConfig
    from ..core.machine import SecureMemorySystem

    if isinstance(preset, MachineConfig):
        if overrides:
            raise TypeError("pass overrides with a preset label, or a complete MachineConfig")
        config = preset
    else:
        config = MachineConfig.preset(preset, **overrides)
    machine = SecureMemorySystem(config)
    if boot:
        machine.boot()
    return machine


def simulate(
    workload,
    config="aise+bmt",
    *,
    events: int = 60_000,
    overlap: float = 0.7,
    warmup: float = 0.25,
    label: str | None = None,
    metrics: bool = False,
) -> SimResult:
    """Run one workload through the timing model.

    ``workload`` and ``config`` resolve via :func:`load_trace` and the
    preset grammar; ``events`` only applies when the workload is named
    (a ready Trace is simulated as-is). ``metrics=True`` attaches the
    end-of-run registry snapshot to ``SimResult.metrics`` (the same
    knob, same spelling, as :func:`sweep`). Equivalent to building the
    :class:`TimingSimulator` by hand — same defaults, same result.
    """
    from ..sim.simulator import TimingSimulator

    resolved, preset = _resolve_config(config)
    trace_ = load_trace(workload, events)
    return TimingSimulator(resolved, overlap=overlap).run(
        trace_, label=label or preset, warmup=warmup, collect_metrics=metrics
    )


def precompile(workload, config="aise+bmt", *, events: int = 60_000) -> dict:
    """Lower a workload's trace for a configuration ahead of time.

    The timing model's compiled engine (:mod:`repro.fastpath.compiled`)
    lowers a trace once per traffic-shaping geometry and memoizes the
    artifact on the :class:`Trace`; :func:`simulate` does this lazily on
    the first cold run. Calling ``precompile`` moves that one-time cost
    off the measured path explicitly — useful before timing loops, or to
    warm a trace that will be swept across many timing parameters (all
    of which replay the same lowering). Returns a small summary::

        {"trace": Trace, "events": ..., "misses": ..., "patterns": ...,
         "cached": bool}

    where ``cached`` reports whether the lowering already existed. The
    memo lives on the :class:`Trace` instance, so hand ``trace`` from
    the summary (or the Trace you passed in) to the later
    :func:`simulate` calls — a workload *name* resolves to a fresh,
    identical Trace each time and would re-lower.

    A configuration whose runs the memoized replay never serves (a
    deferred-update tree such as ``bmt_lazy``: engine reason
    ``deferred_updates``; every run walks live) has nothing to
    precompile and raises ValueError.
    """
    from ..fastpath.compiled import classification_key, compiled_for
    from ..sim.simulator import _OCCUPANCY_SAMPLE_PERIOD, TimingSimulator, run_label

    resolved, label = _resolve_config(config)
    sim = TimingSimulator(resolved)
    if sim._deferred_updates:
        raise ValueError(
            f"{run_label(resolved, label)}: the memoized replay never serves a deferred-update "
            "tree (engine reason deferred_updates); its runs walk live, so "
            "there is nothing to precompile")
    trace_ = load_trace(workload, events)
    key = classification_key(sim, _OCCUPANCY_SAMPLE_PERIOD)
    cached = key in trace_.__dict__.get("_compiled", {})
    artifact = compiled_for(sim, trace_, _OCCUPANCY_SAMPLE_PERIOD)
    return {
        "trace": trace_,
        "events": artifact.n,
        "misses": artifact.misses,
        "patterns": len(artifact.pattern_list),
        "cached": cached,
    }


def _sweep_axes(configs=None, benchmarks=None) -> tuple[tuple, tuple]:
    """Validate a sweep's (labels, benchmarks); ``None`` means all.

    Canonical labels pass as-is; anything else must be a registry-valid
    ``encryption[+integrity]`` preset (e.g. ``aise+bmt_lazy``, or a
    registered third-party scheme pair). Unknown labels or benchmarks
    raise ValueError. :func:`sweep` and the service's ``sweep`` op share
    this check, so both answer a bad knob with the same message.
    """
    from ..core.config import ConfigurationError, MachineConfig
    from ..evalx.runner import CONFIGS
    from ..workloads.spec2k import SPEC2K_BENCHMARKS

    labels = tuple(configs) if configs else tuple(CONFIGS)
    unknown = []
    for label in labels:
        if label in CONFIGS:
            continue
        try:
            MachineConfig.preset(label)
        except ConfigurationError:
            unknown.append(label)
    if unknown:
        raise ValueError(
            f"unknown configs {unknown}; choose a canonical label "
            f"({', '.join(CONFIGS)}) or any registered "
            "'<encryption>[+<integrity>]' pair"
        )
    benches = tuple(benchmarks) if benchmarks else SPEC2K_BENCHMARKS
    unknown = [b for b in benches if b not in SPEC2K_BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmarks {unknown}; choose from {', '.join(SPEC2K_BENCHMARKS)}"
        )
    return labels, benches


@dataclass
class SweepRun:
    """A completed configuration sweep: the grid plus its provenance."""

    grid: dict  # {(bench, label, mac_bits): SimResult}
    runner: object  # the Runner, for cache statistics and follow-up queries
    labels: tuple
    benchmarks: tuple
    events: int
    # Fleet observability (repro.obs.fleet.FleetReport) when the sweep ran
    # with fleet=True; deliberately NOT part of to_payload() — the result
    # payload stays byte-identical with capture on or off.
    fleet: object | None = None

    def to_payload(self) -> dict:
        """The deterministic JSON payload of ``python -m repro sweep``.

        Sorted-key serialization of this payload is the byte-identity
        surface of the parallel-equivalence and golden CI jobs; the CLI
        writes exactly this.
        """
        return {
            "events": self.events,
            "benchmarks": list(self.benchmarks),
            "configs": list(self.labels),
            "cells": {
                f"{bench}/{label}/{bits if bits is not None else 'default'}": result.to_dict()
                for (bench, label, bits), result in self.grid.items()
            },
        }


def sweep(
    configs=None,
    benchmarks=None,
    *,
    events: int = 60_000,
    mac_bits=(None,),
    workers: int = 1,
    cache_dir: str | None = None,
    metrics: bool = False,
    overlap: float = 0.7,
    warmup: float = 0.25,
    fleet: bool = False,
    live_sinks=None,
) -> SweepRun:
    """Simulate a (benchmark x configuration) grid.

    Defaults to every canonical preset over all 21 SPEC2000 benchmarks.
    ``workers > 1`` fans out over a process pool (0 = one per core);
    ``cache_dir`` shares a persistent on-disk result cache. Unknown
    labels or benchmarks raise ValueError before any simulation runs.

    ``fleet=True`` captures per-cell observability (registry snapshots,
    engine attribution, worker timings) and attaches the aggregated
    :class:`~repro.obs.fleet.FleetReport` as ``SweepRun.fleet``;
    ``live_sinks`` is an iterable of progress sinks (objects with
    ``emit(record)``/``close()``, e.g.
    :class:`~repro.obs.fleet.JsonlProgressSink` or
    :class:`~repro.obs.fleet.TtyProgressSink`) that receive the typed
    progress stream while the sweep runs. Both are observers only: the
    grid, its payload, and every cache record are byte-identical with
    them on or off.
    """
    from ..evalx.runner import Runner
    from ..obs.fleet import FleetCollector, ProgressStream

    labels, benches = _sweep_axes(configs, benchmarks)
    runner = Runner(
        events=events,
        benchmarks=benches,
        overlap=overlap,
        warmup=warmup,
        workers=workers,
        cache_dir=cache_dir,
        metrics=metrics,
    )
    collector = FleetCollector() if fleet else None
    stream = ProgressStream(live_sinks) if live_sinks else None
    try:
        grid = runner.run_grid(labels=labels, mac_bits=tuple(mac_bits),
                               fleet=collector, live=stream)
    finally:
        if stream is not None:
            stream.close()
    return SweepRun(grid=grid, runner=runner, labels=labels,
                    benchmarks=benches, events=events,
                    fleet=collector.report if collector is not None else None)


@dataclass
class TraceRun:
    """A workload run under full observability."""

    workload: str
    config_label: str
    result: SimResult
    chrome: dict  # Chrome trace-event document (Perfetto-loadable)
    events: list  # raw event stream
    samples: list  # interval metric snapshots
    phases: dict  # phase-profiler cycle attribution

    def to_payload(self) -> dict:
        """The deterministic JSON payload of a traced run.

        The service ``trace`` op and the CLI ``--json`` envelope carry
        exactly this body (events serialized through their typed
        ``to_dict``, same bytes as the JSONL sink writes them).
        """
        return {
            "workload": self.workload,
            "config": self.config_label,
            "result": self.result.to_dict(),
            "chrome": self.chrome,
            "events": [event.to_dict() for event in self.events],
            "samples": self.samples,
            "phases": self.phases,
        }


def trace(
    workload,
    config="aise+bmt",
    *,
    events: int = 60_000,
    interval: int = 1024,
    warmup: float = 0.25,
    jsonl=None,
) -> TraceRun:
    """Run one workload with live event tracing and interval sampling.

    The simulation runs under an ambient :mod:`repro.obs` session (which
    selects a live run: the simulator's own caches are walked and
    replayed interval by interval, so every sample reads the live
    state). ``jsonl``
    is an optional writable text file that additionally receives each
    raw event as a JSON line while the run progresses.
    """
    from .. import obs
    from ..obs import chrome as chrome_mod
    from ..obs.tracer import EventTracer, JsonlSink, ListSink, TeeSink
    from ..sim.simulator import TimingSimulator

    resolved, preset = _resolve_config(config)
    trace_ = load_trace(workload, events)
    label = preset or f"{resolved.encryption}+{resolved.integrity}"

    list_sink = ListSink()
    sink = list_sink if jsonl is None else TeeSink([list_sink, JsonlSink(jsonl)])
    with obs.observed(tracer=EventTracer(sink), interval=interval) as session:
        sim = TimingSimulator(resolved)
        result = sim.run(trace_, label=label, warmup=warmup, collect_metrics=True)

    phases = session.profiler.snapshot()
    doc = chrome_mod.chrome_trace(
        list_sink.events, session.samples, phases, label=f"{trace_.name}/{label}"
    )
    return TraceRun(
        workload=trace_.name,
        config_label=label,
        result=result,
        chrome=doc,
        events=list_sink.events,
        samples=session.samples,
        phases=phases,
    )
