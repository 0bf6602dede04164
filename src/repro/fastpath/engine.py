"""The batched per-event execution engine for the timing core.

:func:`execute` is the batched event loop behind
:meth:`repro.sim.TimingSimulator.run`. It consumes a pre-decoded trace
(:meth:`repro.sim.trace.Trace.decoded`: the per-run numpy→list
conversion done once and memoized) and turns the per-access attribute
chases of the reference loop into a tight local-variable loop over the
demand path: cache sets and latency parameters are resolved once, the
L2 probe is inlined, and demand hit/miss tallies accumulate in locals
and are credited back in bulk through the owning cache's
:meth:`~repro.mem.cache.SetAssociativeCache.credit_demand`. Every miss
goes through the simulator's own miss helpers (``TimingSimulator._miss``
and what it calls), so the traffic model lives in one place and results
— including the committed figure-6 golden sweep — are byte-identical to
the reference loop.

When the run qualifies — cold caches, no armed sanitizer, no deferred
tree updates — ``execute`` instead dispatches to
:func:`repro.fastpath.compiled.execute_compiled`, which replays the
trace's memoized lowering through an even leaner loop with, again,
bit-identical arithmetic.
"""

from __future__ import annotations

from .compiled import execute_compiled, ineligibility


def execute(sim, trace, warmup: float, sample_period: int) -> tuple[float, float, int]:
    """Run ``trace`` through ``sim`` on the batched fast path.

    Returns ``(now, measured_from, measured_instructions)`` exactly as
    the reference loop in :meth:`TimingSimulator.run` would compute them.
    The caller has already rebased the bus and reset statistics; live
    obs hooks must NOT be armed (the fast path has no per-event
    callback sites). Each run is attributed on the simulator's
    :class:`~repro.fastpath.EngineTelemetry`: compiled replay when
    eligible, otherwise the batched loop with the reason compiled
    replay was passed over.
    """
    from . import ENGINE_COMPILED, ENGINE_PER_EVENT

    telemetry = sim.engine_telemetry
    reason = ineligibility(sim, trace)
    if reason is None:
        telemetry.record(ENGINE_COMPILED)
        return execute_compiled(sim, trace, warmup, sample_period)
    telemetry.record(ENGINE_PER_EVENT, reason)

    decoded = trace.decoded()
    gaps = decoded.gaps
    ops = decoded.ops
    addresses = decoded.addresses

    l2 = sim.l2
    # Pre-resolved L2 probe state: the demand lookup is inlined below
    # (set indexing + LRU touch), mirroring SetAssociativeCache.lookup
    # exactly; hit/miss tallies accumulate in locals and are credited
    # back through the cache's own API.
    sets = l2._sets
    num_sets = l2.num_sets
    block_size = l2.block_size
    tick_occupancy = l2.tick_occupancy
    issue = sim.issue_width
    hit_latency = sim.l2_hit_latency
    overlap = sim.overlap
    miss_path = sim._miss

    now = 0.0
    l2_hits = 0
    l2_misses = 0
    sample_countdown = sample_period
    warm_events = int(len(addresses) * warmup)
    measured_from = 0.0
    measured_instructions = 0
    event_index = 0

    for gap, op, addr in zip(gaps, ops, addresses):
        if event_index == warm_events:
            sim._reset_stats()
            l2_hits = 0
            l2_misses = 0
            measured_from = now
        event_index += 1
        now += gap / issue
        write = op == 1
        block = addr // block_size
        cache_set = sets[block % num_sets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = (True, entry[1])
            l2_hits += 1
            now += hit_latency
        else:
            l2_misses += 1
            now += hit_latency + miss_path(addr, write, now) * overlap
        if event_index > warm_events:
            measured_instructions += gap + 1
        sample_countdown -= 1
        if sample_countdown == 0:
            tick_occupancy()
            sample_countdown = sample_period

    l2.credit_demand(l2_hits, l2_misses)
    sim.demand_accesses = l2_hits + l2_misses
    sim.demand_misses = l2_misses

    if addresses and warm_events >= len(addresses):
        # Degenerate warmup covering the whole trace: nothing measured.
        sim._reset_stats()
        measured_from = now
        measured_instructions = 0

    return now, measured_from, measured_instructions

