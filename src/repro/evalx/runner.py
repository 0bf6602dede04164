"""Experiment runner: simulates (benchmark x configuration) grids with caching.

Every figure in the paper draws from the same small set of protection
configurations over the same 21 benchmarks. The runner simulates each
pair once per process and memoizes the :class:`SimResult`; with
``workers > 1`` it fans the grid out over a process pool, and with a
``cache_dir`` it shares a persistent on-disk result cache with every
other process using the same directory (see :mod:`repro.evalx.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import MachineConfig
from ..sim.results import SimResult
from ..sim.trace import Trace
from ..workloads.spec2k import SPEC2K_BENCHMARKS, spec_trace
from .parallel import Cell, ResultCache, run_cells

# The named configurations the evaluation uses, derived from the preset
# registry so the CLI, the facade, and the figures agree on labels.
# MAC-size variants are derived on demand (figure 11).
CONFIGS: dict[str, MachineConfig] = {
    label: MachineConfig.preset(label) for label in MachineConfig.preset_names()
}


def config_named(label: str, mac_bits: int | None = None) -> MachineConfig:
    """Resolve a registry label (optionally with a MAC-size override).

    The canonical labels resolve through :data:`CONFIGS`; any other
    registry-valid ``encryption[+integrity]`` pair — e.g. a registered
    third-party scheme, or ``aise+bmt_lazy`` — resolves through
    :meth:`MachineConfig.preset`, so explicitly requested sweeps are not
    limited to the figure-6 grid (whose default label set, and the
    committed golden, stay exactly :data:`CONFIGS`)."""
    config = CONFIGS.get(label)
    if config is None:
        config = MachineConfig.preset(label)
    if mac_bits is not None and mac_bits != config.mac_bits:
        from dataclasses import replace

        config = replace(config, mac_bits=mac_bits)
    return config


def grid_cells(labels, mac_bits, benchmarks) -> list[Cell]:
    """The cells of a (label x mac_bits x benchmark) grid, label-major:
    the order a sweep simulates them and streams their progress in."""
    return [
        Cell(bench=bench, label=label, mac_bits=bits,
             config=config_named(label, bits))
        for label in labels
        for bits in mac_bits
        for bench in benchmarks
    ]


@dataclass
class Runner:
    """Memoizing simulation driver over the registry configurations.

    ``workers`` and ``cache_dir`` turn on the parallel engine: grid-wide
    entry points (:meth:`run_grid`, :meth:`prefetch`) fan out across a
    process pool, and individual :meth:`result` calls consult the disk
    cache before simulating. ``workers=1`` (the default) is the serial
    reference path; ``workers=0`` means one worker per core.
    """

    events: int = 120_000
    benchmarks: tuple = SPEC2K_BENCHMARKS
    overlap: float = 0.7
    warmup: float = 0.25
    workers: int = 1
    cache_dir: str | None = None
    # Attach per-cell metrics-registry snapshots to SimResult.metrics
    # (repro.obs); metric-carrying results cache under their own keys.
    metrics: bool = False
    _traces: dict = field(default_factory=dict, repr=False)
    _results: dict = field(default_factory=dict, repr=False)
    _cache: ResultCache | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.cache_dir is not None:
            self._cache = ResultCache(self.cache_dir)

    @property
    def cache(self) -> ResultCache | None:
        """The disk result cache, if one is configured."""
        return self._cache

    def trace(self, bench: str) -> Trace:
        """The (memoized) trace for a benchmark."""
        cached = self._traces.get(bench)
        if cached is None:
            cached = self._traces[bench] = spec_trace(bench, self.events)
        return cached

    def result(self, bench: str, label: str, mac_bits: int | None = None) -> SimResult:
        """Simulate (benchmark, configuration) once; memoized thereafter."""
        key = (bench, label, mac_bits)
        cached = self._results.get(key)
        if cached is None:
            computed = run_cells(
                grid_cells([label], [mac_bits], [bench]),
                events=self.events,
                workers=1,  # a single cell gains nothing from a pool
                cache=self._cache,
                overlap=self.overlap,
                warmup=self.warmup,
                trace_provider=self.trace,
                metrics=self.metrics,
            )
            cached = self._results[key] = next(iter(computed.values()))
        return cached

    # -- grid-wide entry points (the parallel engine) -----------------------

    def run_grid(
        self,
        labels=None,
        mac_bits=(None,),
        benchmarks=None,
        workers: int | None = None,
        fleet=None,
        live=None,
    ) -> dict[tuple, SimResult]:
        """Simulate a (benchmark x label x mac_bits) grid, parallel if asked.

        Returns {(bench, label, mac_bits): SimResult} and populates the
        in-memory memo, so subsequent :meth:`result`/:meth:`overhead`
        calls are free. Results are identical to the serial path cell by
        cell (a repo invariant; see tests/evalx/test_parallel.py) — with
        or without fleet observability: ``fleet`` (a
        :class:`~repro.obs.fleet.FleetCollector`) and ``live`` (a
        :class:`~repro.obs.fleet.ProgressStream`) pass straight through
        to :func:`~repro.evalx.parallel.run_cells` and never touch
        results or cache keys.
        """
        labels = tuple(labels) if labels is not None else tuple(CONFIGS)
        benchmarks = tuple(benchmarks) if benchmarks is not None else self.benchmarks
        computed = run_cells(
            grid_cells(labels, mac_bits, benchmarks),
            events=self.events,
            workers=self.workers if workers is None else workers,
            cache=self._cache,
            overlap=self.overlap,
            warmup=self.warmup,
            trace_provider=self.trace,
            metrics=self.metrics,
            fleet=fleet,
            live=live,
        )
        grid = {cell.key: result for cell, result in computed.items()}
        self._results.update(grid)
        return grid

    def prefetch(self, labels=None, mac_bits=(None,), workers: int | None = None) -> int:
        """Warm the in-memory memo for a label set; returns cells resolved.

        Figure builders then hit only the memo — one pool fan-out serves
        every figure drawn from the same sweep.
        """
        return len(self.run_grid(labels=labels, mac_bits=mac_bits, workers=workers))

    # -- per-cell conveniences ----------------------------------------------

    def overhead(self, bench: str, label: str, mac_bits: int | None = None) -> float:
        """Normalized execution-time overhead of a configuration vs base."""
        base = self.result(bench, "base")
        return self.result(bench, label, mac_bits).overhead_vs(base)

    def average(self, metric) -> float:
        """Average a per-benchmark callable over all benchmarks."""
        values = [metric(bench) for bench in self.benchmarks]
        return sum(values) / len(values)

    def average_overhead(self, label: str, mac_bits: int | None = None) -> float:
        """Mean overhead across all configured benchmarks."""
        return self.average(lambda bench: self.overhead(bench, label, mac_bits))
