"""The clock oracle: section 6's timing rules, one event at a time.

The library has one clock, the replay loop of
:mod:`repro.fastpath.compiled`, which every run takes: the memoized
replay of a lowering, and a live run (a walk of the simulator's own
caches, then a replay of it). This module is the independent side of
that clock. It runs each event as it comes: the L2 probe through
:meth:`SetAssociativeCache.lookup`, every transfer timed on the live
:class:`~repro.mem.bus.MemoryBus` with ``request`` the moment the
per-miss walk produces it, the counter stall, serialized decryption,
precise verification and the stall overlap written out inline, and the
obs events, phases and interval samples emitted where they happen.

The walk itself (:func:`repro.fastpath.walk.miss_walk`) is shared with
the library; ``tests/sim/test_traffic_oracle.py`` checks it against the
traffic rules written from their definitions.

``run(sim, trace, ...)`` is :meth:`TimingSimulator.run` with this loop
in place of the engines, so its :class:`SimResult` compares field for
field with the library's.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro import fastpath
from repro.fastpath.walk import (
    _T_IFETCH, _TOKEN_KIND, _TOKEN_METAS, K_COUNTER, K_MAC_FRAC, K_MAC_WB,
    KIND_NAMES, credit, miss_walk, token_counts,
)
from repro.mem.layout import BLOCK_SIZE


def run(sim, trace, **kwargs):
    """``sim.run(trace, **kwargs)``, timed by the oracle."""
    with mock.patch.object(fastpath, "execute", execute):
        return sim.run(trace, **kwargs)


def execute(sim, trace, warmup, sample_period, session):
    """The oracle's loop; returns ``(now, measured_from, measured_instructions)``.

    A traced run is attributed as the library attributes it (interval
    samples carry the engine gauges).
    """
    if session is not None:
        sim.engine_telemetry.record(fastpath.ENGINE_REFERENCE, "obs_session")
    gaps = trace.gaps.tolist()
    ops = trace.ops.tolist()
    addresses = ((trace.addresses // BLOCK_SIZE) * BLOCK_SIZE).tolist()

    l2 = sim.l2
    lookup = l2.lookup
    bus = sim.bus
    issue = sim.issue_width
    hit_latency = sim.l2_hit_latency
    overlap = sim.overlap
    mem_latency = sim.mem_latency
    aes_latency = sim.aes_latency
    mac_latency = sim.mac_latency
    uses_cc = sim.uses_counter_cache
    serial_decrypt = sim._serial_decrypt
    verify_on_path = sim._verify_on_path
    names = [KIND_NAMES[kind] if kind is not None else None
             for kind in _TOKEN_KIND]
    fractions = [1.0] * len(names)
    fractions[K_MAC_FRAC] = fractions[K_MAC_WB] = sim._mac_bytes / BLOCK_SIZE
    miss_latency = sim.registry.get("sim.miss_latency")

    ev: list = []  # the current miss's tokens
    keys: dict = {}  # key -> misses not yet settled
    clock = [0.0]  # the current miss's event clock
    tracer = [None]  # the session's tracer once armed

    def request(cycle, kind, fraction=1.0):
        start, end = bus.request(cycle, kind, fraction)
        if tracer[0] is not None:
            tracer[0].emit("bus_grant", ts=start, kind=kind,
                           dur=bus.duration(fraction), queued=start - cycle)
        return start, end

    def push(token):  # a token; a transfer is timed on the bus at once
        ev.append(token)
        if names[token] is not None:
            request(clock[0], names[token], fractions[token])

    def emit(event, **fields):
        if tracer[0] is not None:
            tracer[0].emit(event, ts=clock[0], **fields)

    def settle():
        if keys:
            credit(sim, np.array(list(keys.values()))
                   @ token_counts(list(keys)) @ _TOKEN_METAS[walk.tree_is_l2])
            keys.clear()

    def sample(now, events):
        settle()
        snap = sim.registry.snapshot()
        snap["ts"] = session.tracer.to_trace_time(now)
        snap["events"] = events
        session.samples.append(snap)

    walk = miss_walk(sim, push, live=True, emit=emit)
    now = 0.0
    warm_events = int(len(addresses) * warmup)
    measured_from = 0.0
    measured_instructions = 0
    measured = 0
    for event_index, (gap, op, addr) in enumerate(zip(gaps, ops, addresses)):
        if event_index == warm_events:
            sim._reset_stats()
            keys.clear()
            measured_from = now
            if session is not None:
                tracer[0] = session.tracer
                tracer[0].rebase(now)
                sample(now, 0)
        armed = tracer[0] is not None
        now += gap / issue
        write = op == 1
        sim.demand_accesses += 1
        if lookup(addr, write):
            now += hit_latency
            if armed:
                session.profiler.add("l2_hit", hit_latency)
        else:
            sim.demand_misses += 1
            start, end = request(now, "data")
            data_ready = start + mem_latency
            clock[0] = now
            ev.clear()
            extra = 0.0
            if uses_cc:
                walk.counter_access(walk.counter_block(addr), False)
                if ev[0] == K_COUNTER:
                    # The pad waits for the counter block, whose fetch
                    # starts as the demand fetch ends.
                    extra = max(0.0, ((end + mem_latency) + aes_latency)
                                - data_ready)
                sim.exposed_cycles += extra
            elif serial_decrypt:
                extra = aes_latency  # decryption serialized after the fetch
                sim.exposed_cycles += extra
            if extra and armed:
                tracer[0].emit("decrypt_exposed", ts=now, addr=addr, dur=extra)
            walk.fill(addr // BLOCK_SIZE, write)
            if verify_on_path:
                # Precise verification: the hash latency always shows, plus
                # a serialized memory round trip when metadata was fetched.
                extra += mac_latency
                if _T_IFETCH in ev:
                    extra += mem_latency
            key = tuple(ev)
            keys[key] = keys.get(key, 0) + 1
            raw = (data_ready - now) + extra
            now += hit_latency + raw * overlap
            if armed:
                miss_latency.observe(raw)
                tracer[0].emit("l2_miss", ts=now, addr=addr, write=write,
                               latency=raw)
                session.profiler.add("l2_miss", hit_latency + raw * overlap)
        if event_index >= warm_events:
            measured_instructions += gap + 1
            measured += 1
            if armed and measured % max(1, int(session.interval)) == 0:
                sample(now, measured)
        if (event_index + 1) % sample_period == 0:
            l2.tick_occupancy()

    if addresses and warm_events >= len(addresses):
        # Degenerate warmup covering the whole trace: nothing measured.
        sim._reset_stats()
        keys.clear()
        measured_from = now
        measured_instructions = 0

    if sim._deferred_updates:
        # End-of-run drain: a deferred tree owes the bus its queued walks
        # before the run's traffic accounting (and the final sample) close.
        clock[0] = now
        ev.clear()
        walk.drain()
        key = tuple(ev)
        keys[key] = keys.get(key, 0) + 1
    if tracer[0] is not None:
        sample(now, measured)
    settle()
    walk.close()
    return now, measured_from, measured_instructions
