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

The per-miss rules (:func:`repro.fastpath.walk.miss_walk`'s counter
read, integrity traffic and victim writeback) are shared with the
library; the demand fill into the L2 is spelled here, beside the probe.
``tests/sim/test_traffic_oracle.py`` checks the walk against the traffic
rules written from their definitions.

``run(sim, trace, ...)`` is :meth:`TimingSimulator.run` with this loop
in place of the engines, so its :class:`SimResult` compares field for
field with the library's.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro import fastpath
from repro.core import sanitizer
from repro.fastpath.walk import (
    _T_IFETCH, _TOKEN_KIND, _TOKEN_METAS, K_COUNTER, K_MAC_FRAC, K_MAC_WB,
    KIND_NAMES, credit, miss_walk, token_counts,
)
from repro.mem.cache import DATA, LINE
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
    l2_sets, l2_classes = walk.l2_sets, walk.l2_classes

    def fill(block, write):
        # The rest of a miss: its integrity traffic, then the L2 data
        # fill, which refills a line a metadata insert put there, or
        # evicts the set's LRU line and writes a dirty one back.
        walk.integrity(block)
        cache_set = l2_sets[block % l2.num_sets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set[block] = LINE[DATA][entry[0] or write]
            cache_set.move_to_end(block)
            l2_classes[entry[1]] -= 1
            l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
            return
        victim = None
        if len(cache_set) >= l2.assoc:
            victim, (dirty, line_class) = cache_set.popitem(last=False)
            l2_classes[line_class] -= 1
        cache_set[block] = LINE[DATA][write]
        l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
        if sanitizer._active is not None:
            l2._sanitize_insert(cache_set)
        if victim is not None and dirty:
            walk.writeback(victim, line_class)

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
            fill(addr // BLOCK_SIZE, write)
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
