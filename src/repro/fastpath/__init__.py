"""repro.fastpath: engine choice for the timing core, and the fast paths.

The timing simulator's event loop and the functional crypto path are the
two hot paths of the repository. This package owns the *fast* versions
of both and the switches that select them:

* :func:`enabled` / :func:`forced` — one feature gate (``REPRO_FASTPATH``,
  default on) shared by every optimization layer: the keystream pad memo
  (:class:`repro.crypto.engine.PadCache`), the interned seed tuples
  (:meth:`repro.core.seeds.SeedScheme.seeds_for_block`), the integer-XOR
  block cipher application (:mod:`repro.crypto.ctr_mode`), and the
  memoized timing replay below. Disabling the gate restores the
  reference implementations byte-for-byte (a timing run then walks
  live) — ``benchmarks/bench_throughput.py`` runs both sides in the same
  process and reports the speedup, and the equivalence tests assert
  identical output either way.
* :func:`execute` (:mod:`repro.fastpath.engine`) — the one place that
  chooses how :meth:`repro.sim.TimingSimulator.run` is served. Every run
  is a walk, then a replay through one clock
  (:mod:`repro.fastpath.compiled`). The **memoized replay** replays a
  lowering of the ``Trace`` into typed arrays plus a recorded traffic
  program, memoized on the trace and reused by every run that shares
  its traffic-shaping geometry. A **live run** walks the simulator's own
  caches and replays that walk; it serves an active :mod:`repro.obs`
  session (its interval samples need the live state), the gate off, and
  every run the memoized replay cannot serve (an armed sanitizer,
  deferred tree updates, warm caches, an empty trace). Both walk every
  miss with one per-miss walk (:mod:`repro.fastpath.walk`), the only
  home of the traffic rules. The arithmetic is identical operation for
  operation either way, so results — including the committed figure-6
  golden sweep — are byte-identical; ``tests/sim/clock_oracle.py``
  holds the clock to the section-6 rules written one event at a time.

Not every optimization of the functional datapath is gated. Those that
yield the same bytes by construction, with no memo whose hit could hide
a fault, are always on and have no reference twin: the counter block's
packed minors kept in step by ``increment`` (O(1) serialization), keyed
BLAKE2 states built once and copied per message (MACs, fast pads, the
swap disk cipher), the one-probe splice per level in
``MerkleTree.update``, and named-tuple seed inputs composed with one
block-in-page lookup. ``benchmarks/functional_golden.py`` pins DRAM, the
root register, the access log and the engine statistics of a seeded
kernel workload under both gate settings.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_FORCED: bool | None = None
_FALSEY = ("0", "off", "false", "no")

# The engine-attribution vocabulary. Every TimingSimulator.run() is
# attributed to exactly one engine: "compiled" (the memoized replay) or
# "reference" (a live run: the live walk, then the clock), which also
# carries the *reason* the memoized replay was passed over. The reasons
# are listed in the order execute() checks them.
ENGINE_COMPILED = "compiled"
ENGINE_REFERENCE = "reference"
ENGINES = (ENGINE_COMPILED, ENGINE_REFERENCE)
FALLBACK_REASONS = (
    "obs_session",        # interval samples read the live walk's state
    "fastpath_gate_off",  # REPRO_FASTPATH=0 / forced(False)
    "sanitizer_armed",    # only the live walk carries its checks
    "deferred_updates",   # only the live walk keeps the pending-walk queue
    "warm_caches",        # the lowering replays onto cold caches only
    "empty_trace",        # nothing to replay
)


class EngineTelemetry:
    """Per-simulator record of which execution engine each run() used.

    Mutated only by the engine-selection code (:func:`execute`);
    everyone else reads it through the pull-model gauges
    :func:`repro.obs.adapters.register_engine_telemetry` binds — the
    OBS002 lint rule holds engine code to exactly that split. Recording
    is one attribute bump per *run* (never per event), so disabled-mode
    output and cost are untouched.
    """

    __slots__ = ("compiled", "reference", "fallbacks",
                 "lowering_hits", "lowering_misses", "lowering_staged",
                 "last_engine", "last_reason")

    def __init__(self):
        self.compiled = 0
        self.reference = 0
        # {reason: runs}; only reasons that actually occurred appear.
        self.fallbacks: dict[str, int] = {}
        self.lowering_hits = 0
        self.lowering_misses = 0
        # Lowerings built by the set-parallel staged route (the rest of
        # the misses took the sequential walk).
        self.lowering_staged = 0
        self.last_engine: str | None = None
        self.last_reason: str | None = None

    def record(self, engine: str, reason: str | None = None) -> None:
        """Attribute one run; ``reason`` is required unless compiled."""
        if engine == ENGINE_COMPILED:
            self.compiled += 1
        elif engine == ENGINE_REFERENCE:
            self.reference += 1
        else:
            raise ValueError(f"unknown engine {engine!r}")
        if reason is not None:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        self.last_engine = engine
        self.last_reason = reason

    def record_lowering(self, hit: bool) -> None:
        """One compiled-lowering memo probe (see ``compiled_for``)."""
        if hit:
            self.lowering_hits += 1
        else:
            self.lowering_misses += 1

    def record_staged_lowering(self) -> None:
        """One lowering built by the staged route (see ``lower``)."""
        self.lowering_staged += 1

    @property
    def runs(self) -> int:
        return self.compiled + self.reference

    @property
    def lowering_hit_rate(self) -> float:
        probes = self.lowering_hits + self.lowering_misses
        return self.lowering_hits / probes if probes else 0.0


def enabled() -> bool:
    """Whether the fast paths are active (default: yes).

    ``REPRO_FASTPATH=0`` (or ``off``/``false``/``no``) selects the
    reference implementations; :func:`forced` overrides the environment
    for a scope (benchmarks, equivalence tests).
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_FASTPATH", "1").lower() not in _FALSEY


@contextmanager
def forced(state: bool):
    """Force the gate on or off within a ``with`` block.

    Only components *constructed or run* inside the block are affected:
    engines resolve the gate when built, the simulator on each ``run()``.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = bool(state)
    try:
        yield
    finally:
        _FORCED = previous


from .engine import execute  # noqa: E402  (the gate above must exist first)

__all__ = [
    "ENGINES",
    "ENGINE_COMPILED",
    "ENGINE_REFERENCE",
    "EngineTelemetry",
    "FALLBACK_REASONS",
    "enabled",
    "execute",
    "forced",
]
