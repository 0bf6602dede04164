"""The measurement loop shared by every workload (see :class:`Workload`).

Closed loop: the next step starts only after the previous one ends.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from perfbench.calibrate import Calibrator

SETUP_REPEATS = 3
MIN_OPS = 100
# Op time allowed between calibration slices: short ops share a slice,
# long ops get one after each.
CALIBRATION_INTERVAL_S = 0.02
# A phase stops at the next step boundary once this much wall time has
# passed, whatever its round, so a very slow host still exits in time.
PHASE_WALL_LIMIT_S = 70.0


@dataclass
class Op:
    """One measured op: host-time interval, tier label, check outcome."""

    start: float
    end: float
    tier: str
    ok: bool | None = None
    error: str | None = None
    data: object = None
    factor: float = 1.0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * self.factor


@dataclass
class Phase:
    """The ops of one measured phase and the host time they took."""

    ops: list = field(default_factory=list)
    step_ops: list = field(default_factory=list)   # ops per step
    step_raw: list = field(default_factory=list)   # step host seconds
    step_norm: list = field(default_factory=list)  # step nominal seconds
    step_factor: list = field(default_factory=list)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def raw_s(self) -> float:
        return sum(self.step_raw)

    @property
    def norm_s(self) -> float:
        return sum(self.step_norm)

    def factor_of_step(self, index: int) -> float:
        return self.step_factor[index]


class Workload:
    """What a workload provides to the harness.

    ``round_steps`` steps make one round; a phase only ends on a round
    boundary, so every run measures whole rounds. ``max_rounds`` caps
    the rounds of a phase for a workload whose rounds draw on a finite
    supply prepared in set-up (None: no cap). ``trace_cap_steps`` fixes
    the steps of both phases of a traced run (None: as many as the
    untraced phase takes in ``--seconds``).
    """

    name = ""
    round_steps = 1
    max_rounds: int | None = None
    trace_cap_steps: int | None = None

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int, gap) -> dict:
        """Set-up before the first op (timed; returns the context). A
        set-up made of several stages calls ``gap()`` between them; each
        stage is then normalized with the calibration slices nearest it."""
        raise NotImplementedError

    def close(self, ctx) -> None:
        """Release what ``setup`` started."""

    def steps(self, ctx, seed: int):
        """An endless iterator of pre-generated step inputs."""
        raise NotImplementedError

    def run_step(self, ctx, spec, gap) -> list:
        """Run one step (one op, or a few back to back or at once) and
        return its :class:`Op` list. A step with several ops in a row
        calls ``gap()`` between them, which may take a calibration slice."""
        raise NotImplementedError

    def check(self, ctx, spec, ops) -> None:
        """Off the clock, after each step: set ``op.ok``."""

    def verify(self, ctx) -> None:
        """Off the clock, after the phase: set ``op.ok`` left unset."""

    def counters(self, ctx) -> dict:
        """Public counters, read before and after the phase."""
        return {}

    def report(self, ctx, phase) -> dict:
        """Extra detail for the output (tier mix, kernel counts)."""
        return {}

    def layer_counters(self, ctx, phase) -> dict:
        """Per-layer metrics read from public counters."""
        return {}


class Harness:
    """Runs set-up and measured phases with calibration between ops."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.cal = Calibrator()

    # -- calibration ------------------------------------------------------------

    def gap(self) -> None:
        """Between two ops: take a slice if enough time has passed."""
        if time.perf_counter() - self.cal.times[-1] >= CALIBRATION_INTERVAL_S:
            self.cal.slice()

    # -- set-up -----------------------------------------------------------------

    def setup(self, repeats: int = 1):
        """Set up ``repeats`` times; keep the last context.

        Returns (ctx, [normalized seconds], [raw seconds]); calibration
        slices taken between set-up stages are not counted.
        """
        norm, raw = [], []
        ctx = None
        for _ in range(repeats):
            if ctx is not None:
                self.workload.close(ctx)
                ctx = None
            # Off the clock: free what earlier set-ups and phases left,
            # so neither their memory nor a collection of it slows this one.
            gc.collect()
            stages: list[tuple[float, float]] = []
            begun = [0.0]

            def gap() -> None:
                stages.append((begun[0], time.perf_counter()))
                self.cal.slice()
                begun[0] = time.perf_counter()

            for _ in range(3):
                self.cal.slice()
            begun[0] = time.perf_counter()
            ctx = self.workload.setup(self.seed, gap)
            stages.append((begun[0], time.perf_counter()))
            for _ in range(3):
                self.cal.slice()
            raw.append(sum(end - start for start, end in stages))
            norm.append(sum((end - start) * self.cal.factor_at((start + end) / 2)
                            for start, end in stages))
        return ctx, norm, raw

    # -- measured phase -----------------------------------------------------------

    def measure(self, ctx, seconds: float, max_steps: int | None = None,
                tracer=None) -> Phase:
        """Run steps until ``seconds`` of op time and MIN_OPS ops have
        passed on a round boundary (or the workload's ``max_rounds`` are
        done), or exactly ``max_steps`` steps."""
        wl = self.workload
        phase = Phase(before=wl.counters(ctx))
        wall_start = time.perf_counter()
        self.cal.slice()
        busy = 0.0
        for index, spec in enumerate(wl.steps(ctx, self.seed)):
            if max_steps is not None and index >= max_steps:
                break
            spent = self.cal.spent
            if tracer is not None:
                tracer.op = index
                tracer.recording = True
            start = time.perf_counter()
            try:
                ops = wl.run_step(ctx, spec, self.gap)
            finally:
                end = time.perf_counter()
                if tracer is not None:
                    tracer.recording = False
            step_raw = end - start - (self.cal.spent - spent)
            busy += step_raw
            phase.step_ops.append(len(ops))
            phase.ops.extend(ops)
            phase.step_raw.append(step_raw)
            wl.check(ctx, spec, ops)
            self.gap()
            if max_steps is None:
                done = len(phase.step_raw)
                if time.perf_counter() - wall_start > PHASE_WALL_LIMIT_S:
                    break
                if done % wl.round_steps == 0 and (
                        (busy >= seconds and len(phase.ops) >= MIN_OPS)
                        or done // wl.round_steps == wl.max_rounds):
                    break
        self.cal.slice()
        wl.verify(ctx)
        phase.after = wl.counters(ctx)
        phase.wall_s = time.perf_counter() - wall_start
        # Normalize with the slices nearest each op / step.
        cursor = 0
        for count, step_raw in zip(phase.step_ops, phase.step_raw):
            step = phase.ops[cursor:cursor + count]
            cursor += count
            factor = self.cal.factor_at((step[0].start + step[-1].end) / 2)
            for op in step:
                op.factor = self.cal.factor_at((op.start + op.end) / 2)
            phase.step_factor.append(factor)
            phase.step_norm.append(step_raw * factor)
        return phase


def latency_stats(ops) -> dict:
    """Median and p90 of normalized op latency (ms), with sample counts."""
    values = sorted(op.seconds * 1e3 for op in ops)
    p50 = statistics.median(values)
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    return {"p50_ms": p50, "p90_ms": p90, "samples": len(values),
            "beyond_p90": sum(1 for v in values if v > p90)}


def tier_counts(ops) -> dict:
    counts: dict[str, int] = {}
    for op in ops:
        counts[op.tier] = counts.get(op.tier, 0) + 1
    return counts


def tier_latency(ops) -> dict:
    """Per-tier median normalized latency (ms)."""
    by_tier: dict[str, list] = {}
    for op in ops:
        by_tier.setdefault(op.tier, []).append(op.seconds * 1e3)
    return {tier: statistics.median(v) for tier, v in sorted(by_tier.items())}
