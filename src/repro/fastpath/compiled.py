"""The trace pre-compiler and the one clock: every run is a walk, then a replay.

The timing model's work splits in two. The *cache state machine* — L2,
counter and node lookups, LRU motion, evictions, the metadata traffic
they trigger — depends only on the access sequence and the machine's
traffic-shaping geometry (cache shapes, scheme flags, metadata layout).
The *clock arithmetic* — bus queueing, exposed decrypt latency, stall
overlap — depends on the timing parameters (latencies, bus speed, issue
width, warmup) but never feeds back into a single cache decision. So a
run first *walks* the state machine, off the clock, and records its
complete observable behaviour as a :class:`CompiledTrace` — per-event
hit/miss flags, the interned *key* of each miss, and per key its
bus-transfer program (an interned pattern of transfer kinds), stall and
verification markers and statistics deltas; plus L2 occupancy samples —
and then *replays* it: :func:`_run_segment`, the only clock, reproduces
section 6's arithmetic operation for operation (float rounding is
order-sensitive, so the per-event additions are replayed, never
re-associated), while every order-insensitive statistic settles as the
measured misses' key counts times the per-key tables, through the
owners' batch-credit APIs (:func:`_replay`).

:func:`repro.fastpath.execute` picks the walk. The **memoized replay**
(:func:`execute_compiled`) walks model caches from empty (:func:`lower`),
memoizes the lowering on the :class:`~repro.sim.trace.Trace` keyed by
the traffic-shaping geometry — so sweeps that vary only timing knobs
replay one artifact — and installs the recorded final contents
afterwards (deferred, see
:meth:`~repro.mem.cache.SetAssociativeCache.restore_state`). The
warmup never moves the clock, so a memoized lowering's second replay
at a timing point records its clock run (:class:`ClockRun`), and a
later replay at that point settles any warmup from the record. A **live
run** (:func:`execute_live`) serves everything else: it walks the
simulator's own caches, is never memoized and installs nothing.

:func:`lower` takes one of two routes to the same artifact. When the L2
holds only demand data (the scheme walks no tree and caches no data
MACs: :func:`l2_holds_only_data`), its sets never interact, so
:func:`lower_staged` simulates them set-parallel with NumPy — stage 1
steps every L2 set in lockstep (memoized per trace and shared by every
such scheme, whose L2 demand streams are identical), stage 2 runs the
counter cache over the stream the misses derive, and the artifact is
assembled with array operations. Tree walks and cached data MACs put
metadata in the L2, so misses in one set evict lines in others and the
sets feed back into each other; those schemes take
:func:`lower_sequential`, which runs the per-miss walk
(:mod:`repro.fastpath.walk`) and stays the reference the staged route
is tested against. It records one interned *key* per miss (its transfer
kinds plus hit markers), and the staged route maps its outcome codes to
the same keys, so one assembler (:func:`_assemble`) derives both routes'
per-key tables with NumPy.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from itertools import chain, islice

import numpy as np

from ..core import sanitizer
from ..mem.cache import CODE, COUNTER, DATA, LINE, MAC, MERKLE
from ..mem.layout import BLOCK_SIZE
from ..obs.adapters import SimHooks
from .walk import (
    _N_KINDS, _T_CC_HIT, _T_IFETCH, _TOKEN_KCOUNTS, _TOKEN_KIND, _TOKEN_METAS,
    K_COUNTER, K_COUNTER_WB, K_DATA, K_DATA_WB, K_MAC_FRAC, K_MAC_WB,
    KIND_NAMES, counter_block_of, credit, miss_walk, token_counts,
)

_MEMO_CAPACITY = 2  # lowerings kept per Trace (sweeps replay one)
_CLOCK_CAPACITY = 2  # timing points kept per lowering

# The staged route's L2-stage memo, an attribute of the Trace it lowers.
L2_STAGE_MEMO = "_l2_stage"

# Outcome bits of a staged miss: its counter read missed / evicted a
# dirty counter block; its L2 victim was dirty, and that victim's counter
# write missed / evicted a dirty counter block.
_S_CC_MISS, _S_CC_WB, _S_L2_WB, _S_WB_CC_MISS, _S_WB_CC_WB = 1, 2, 4, 8, 16
_S_CODES = 32


def classification_key(sim, sample_period: int) -> tuple:
    """Everything that can change the lowering of a trace for ``sim``.

    Timing parameters (latencies, bus speed, issue width, overlap,
    warmup, precise verification) are deliberately absent: they shape
    the clock, not the traffic, so runs differing only in them replay
    one artifact.
    """
    l2 = sim.l2
    cc = sim.counter_cache
    nc = sim.node_cache
    uses_cc = sim.uses_counter_cache
    return (
        "lowering-v1",
        sample_period,
        (l2.num_sets, l2.assoc, l2.block_size),
        (cc.num_sets, cc.assoc),
        None if nc is None else (nc.num_sets, nc.assoc),
        uses_cc,
        sim._cb_span if uses_cc else 0,
        sim._ctr_base if uses_cc else 0,
        sim._walks_tree,
        tuple(sim._walk_bases),
        sim._arity,
        sim._covered_start,
        sim._tree_covers_data,
        sim._uses_data_macs,
        sim._cache_data_macs,
        sim._mac_base,
        sim._mac_bytes,
    )


def _durations(full_dur: int, frac_dur: int) -> tuple:
    """Bus occupancy per transfer kind: a full block, or ``mac_bytes``."""
    durs = [full_dur] * _N_KINDS
    durs[K_MAC_FRAC] = frac_dur
    durs[K_MAC_WB] = frac_dur
    return tuple(durs)


class CompiledTrace:
    """One trace lowered for one traffic-shaping geometry.

    Key-indexed: everything a miss does is a property of its interned
    key, so the artifact holds per-key tables (``key_programs``,
    ``key_kcounts``, ``key_metas``) and one per-miss slot, ``key_idx``,
    the key of each miss. A live lowering may also carry ``records``, each
    measured miss's obs emissions for a traced replay, and ``tail``, the
    deferred queue's end-of-run drain (see :func:`lower_sequential`).
    Immutable after it is built; the ``prog`` binding memo caches the
    replay program (and :meth:`key_slots`, a clock view's per-key
    tables) per pair of bus transfer durations, and the clock
    memo ``_clocks`` maps each timing point replayed to None, then, from
    its second replay on, to its recorded :class:`ClockRun`.
    ``miss_flags`` holds one byte per event, 1 for a miss.
    """

    __slots__ = (
        "n",
        "miss_flags",
        "pattern_list",
        "key_idx",
        "key_programs",
        "key_kcounts",
        "key_metas",
        "ticks",
        "final_l2",
        "final_cc",
        "final_node",
        "records",
        "tail",
        "_clocks",
        "_prog_memo",
    )

    def __init__(self, n, miss_flags, pattern_list, key_idx,
                 key_programs, key_kcounts, key_metas, ticks,
                 final_l2, final_cc, final_node, records=None, tail=None):
        self.n = n
        self.miss_flags = miss_flags
        self.pattern_list = pattern_list
        self.key_idx = key_idx
        self.key_programs = key_programs
        self.key_kcounts = key_kcounts
        self.key_metas = key_metas
        self.ticks = ticks
        self.final_l2 = final_l2
        self.final_cc = final_cc
        self.final_node = final_node
        self.records = records
        self.tail = tail
        self._clocks = {}
        self._prog_memo = {}

    @property
    def misses(self) -> int:
        return len(self.key_idx)

    def key_programs_for(self, full_dur: int, frac_dur: int) -> list:
        """Per key, its replay program ``(rest_durations, stall, ifetch)``.

        ``rest_durations`` is the key's bus transfers after the demand
        fetch, as a duration tuple (interned per pattern); ``stall``
        marks a demand counter-read miss (the counter fetch is then always
        the first rest transfer); ``ifetch`` marks a nonzero integrity
        fetch count for precise verification.
        """
        durs = _durations(full_dur, frac_dur)
        pattern_durs = [tuple(map(durs.__getitem__, pattern))
                        for pattern in self.pattern_list]
        return [(pattern_durs[pattern], stall, ifetch)
                for pattern, stall, ifetch in self.key_programs]

    def key_slots(self, full_dur: int, frac_dur: int) -> tuple:
        """Per key, its transfers after the demand fetch by slot, for a
        clock view (memoized with ``prog``): ``(durations, lengths,
        rank, stalled)``. ``durations`` is a ``(width, keys)`` array, a
        key's column holding its transfer durations in bus order, then
        zeros; ``lengths`` counts each key's transfers; ``rank`` is
        ``width - lengths`` in the smallest unsigned dtype (sorting by
        it orders keys longest first); ``stalled`` is the key's
        counter-read stall flag.
        """
        key = ("slots", full_dur, frac_dur)
        cached = self._prog_memo.get(key)
        if cached is None:
            programs = self.key_programs_for(full_dur, frac_dur)
            lengths = np.array([len(durs) for durs, _, _ in programs])
            width = int(lengths.max())
            durations = np.zeros((width, len(programs)))
            for column, (durs, _, _) in enumerate(programs):
                durations[:len(durs), column] = durs
            rank = (width - lengths).astype(np.min_scalar_type(width))
            stalled = np.array([stall for _, stall, _ in programs], dtype=bool)
            cached = self._prog_memo[key] = (durations, lengths, rank, stalled)
        return cached

    def prog(self, full_dur: int, frac_dur: int) -> list:
        """The per-miss replay program: for each miss, its key's
        :meth:`key_programs_for` tuple (one tuple is built per key)."""
        key = (full_dur, frac_dur)
        cached = self._prog_memo.get(key)
        if cached is None:
            programs = self.key_programs_for(full_dur, frac_dur)
            cached = list(map(programs.__getitem__, self.key_idx.tolist()))
            self._prog_memo[key] = cached
        return cached

    def final_contents(self, cache: str) -> tuple | None:
        """The recorded end-of-run contents of ``cache`` (``"l2"``,
        ``"cc"`` or ``"node"``) in one canonical form: a tuple of
        ``(block, (dirty, line_class))`` items per set, LRU first, and a
        copy of the class tallies; ``None`` for an absent node cache.

        The ``final_*`` slots keep whatever form the route produced (the
        walk's own sets, or :class:`PackedSets`); this is how they are
        compared.
        """
        recorded = getattr(self, "final_" + cache)
        if recorded is None:
            return None
        sets, class_lines = recorded
        return (tuple(tuple(OrderedDict(items).items()) for items in sets),
                dict(class_lines))

    def tail_program(self, full_dur: int, frac_dur: int) -> tuple:
        """The trailing drain's transfer durations, in bus order (empty
        when the lowering has no tail)."""
        if self.tail is None:
            return ()
        durs = _durations(full_dur, frac_dur)
        return tuple(map(durs.__getitem__, self.tail[0]))

    def settle(self, first: int, last: int, full_dur: int, frac_dur: int,
               tail: bool = False) -> tuple:
        """Totals over misses ``first`` to ``last`` (and the trailing
        drain, with ``tail``): statistics deltas (``_N_META`` columns),
        transfer counts by kind and bus busy cycles (an int).

        Every per-miss quantity is a property of the miss's key, so the
        interval settles as its key counts times the key tables, in
        integer arithmetic; busy cycles are the kind totals times the
        kinds' transfer durations.
        """
        counts = np.bincount(self.key_idx[first:last],
                             minlength=len(self.key_programs))
        meta = counts @ self.key_metas
        kinds = counts @ self.key_kcounts
        if tail and self.tail is not None:
            meta = meta + self.tail[1]
            kinds = kinds + self.tail[2]
        durations = np.asarray(_durations(full_dur, frac_dur),
                               dtype=np.int64)
        return meta, kinds, int(kinds @ durations)


def lower(sim, trace, sample_period: int) -> CompiledTrace:
    """Run the cache state machine once and record its behaviour.

    The single entry point: schemes whose L2 holds only demand data take
    the set-parallel :func:`lower_staged` route (counted once per
    lowering in ``EngineTelemetry.lowering_staged``); every other scheme
    takes :func:`lower_sequential`. Both build the same artifact.
    """
    if l2_holds_only_data(sim):
        telemetry = getattr(sim, "engine_telemetry", None)
        if telemetry is not None:
            telemetry.record_staged_lowering()
        return lower_staged(sim, trace, sample_period)
    return lower_sequential(sim, trace, sample_period)


def lower_sequential(sim, trace, sample_period: int, lo: int = 0,
                     hi: int | None = None, live: bool = False,
                     record: bool = False, drain: bool = False) -> CompiledTrace:
    """The general lowering: one pure-Python walk over events ``lo`` to ``hi``.

    It decodes the trace's columns and runs the walk's demand loop
    (:func:`~repro.fastpath.walk.miss_walk`'s ``events``): the L2 probe,
    then per miss the counter read, the integrity traffic and the L2
    fill, its tokens interned as its *key*, from which :func:`_assemble`
    derives the per-key tables. Occupancy is sampled after every event
    whose number (from the start of the trace) is a multiple of
    ``sample_period``. The walk runs on model caches from empty and keeps
    their final contents, or, ``live``, on ``sim``'s own caches.
    ``record`` keeps, per miss, its block address, write flag and record
    for a traced replay: its tokens with the walk's emissions where they
    happened, and ``None`` at the decrypt-exposed point. ``drain`` ends with the deferred queue's
    drain: the *tail* holds its transfer kinds, statistics and transfer
    counts, and its record comes last.
    """
    hi = len(trace) if hi is None else hi
    ev: list = []  # the current miss's key, as it is built
    items: list | None = None  # the current miss's record, when recording
    if record:
        items = []

        def push(token):
            ev.append(token)
            items.append(token)

        def emit(event, **fields):
            items.append((event, fields))

        walk = miss_walk(sim, push, live=live, emit=emit)
    else:
        walk = miss_walk(sim, ev.append, live=live)
    miss_events, key_ids, key_idx, ticks, records = walk.events(
        trace.addresses[lo:hi].astype(np.int64),
        (np.asarray(trace.ops[lo:hi]) == 1).tolist(), lo, sample_period,
        ev, items)

    tail = None
    if drain:
        ev.clear()
        if record:
            items.clear()
        walk.drain()
        counts = token_counts([tuple(ev)])
        tail = (tuple([kind for kind in map(_TOKEN_KIND.__getitem__, ev)
                       if kind is not None]),
                (counts @ _TOKEN_METAS[walk.tree_is_l2])[0],
                (counts @ _TOKEN_KCOUNTS)[0])
        if record:
            records.append((None, None, items.copy()))
    walk.close()
    n = hi - lo
    flags = np.zeros(n, dtype=np.uint8)
    flags[miss_events] = 1
    node_cache = sim.node_cache
    return CompiledTrace(
        n=n,
        miss_flags=flags.tobytes(),
        **_assemble(list(key_ids), key_idx, walk.tree_is_l2),
        ticks=np.asarray(ticks, dtype=np.int64).reshape(len(ticks), 5),
        final_l2=None if live else (walk.l2_sets, walk.l2_classes),
        final_cc=None if live else (walk.cc_sets, walk.cc_classes),
        final_node=(None if live or node_cache is None
                    else (walk.tree_sets, walk.tree_classes)),
        records=records,
        tail=tail,
    )


def _assemble(keys: list, key_idx, tree_is_l2: bool) -> dict:
    """The key-indexed slots of a lowering from its interned keys.

    ``keys`` holds the distinct keys in first-seen order and ``key_idx``
    the key of each miss, which is kept as the one per-miss slot (int64).
    Each key's transfer pattern, counter stall, integrity-fetch flag,
    kind counts and statistics deltas are derived once and stay per key.
    Patterns are interned in first-seen order too: keys that differ only
    in markers share one.
    """
    counts = token_counts(keys)
    key_kcounts = counts @ _TOKEN_KCOUNTS
    key_kcounts[:, K_DATA] += 1  # the demand fetch

    patterns: dict = {}
    key_programs = []
    for key in keys:
        pattern = tuple([kind for kind in map(_TOKEN_KIND.__getitem__, key)
                         if kind is not None])
        # The demand counter read comes first, so a miss stalls on the
        # counter fetch exactly when its key opens with one.
        key_programs.append((patterns.setdefault(pattern, len(patterns)),
                             1 if key and key[0] == K_COUNTER else 0,
                             1 if _T_IFETCH in key else 0))
    return dict(
        pattern_list=list(patterns),
        key_idx=np.asarray(key_idx, dtype=np.int64),
        key_programs=key_programs,
        key_kcounts=key_kcounts,
        key_metas=counts @ _TOKEN_METAS[tree_is_l2],
    )


def l2_holds_only_data(sim) -> bool:
    """Whether ``sim``'s L2 only ever holds demand data lines.

    True unless the scheme walks a tree or caches data MACs in the L2.
    Without metadata in it, an L2 access interacts only with earlier
    accesses to the same set, and the L2's behaviour is the same for
    every such scheme — the two facts :func:`lower_staged` is built on.
    (A tree in a dedicated node cache still leaves the L2 to data, but
    its walks interleave with the counter cache's writebacks, so tree
    schemes stay sequential either way.)
    """
    return not sim._walks_tree and not (sim._uses_data_macs
                                        and sim._cache_data_macs)


def _lru_lockstep(sets, blocks, writes, num_sets: int, assoc: int):
    """Simulate a write-back LRU cache over one access stream, set-parallel.

    Accesses are grouped by set (stably, so each set sees its own
    accesses in stream order); step *k* then handles the *k*-th access
    of every set at once over ``(sets, ways)`` arrays of tag, last-use
    stamp and dirty bit. Returns per-access ``hit``, ``victim`` (the
    evicted block, -1 when none) and ``victim_dirty`` arrays, plus the
    final ``(tags, stamps, dirty)`` state.
    """
    n = len(blocks)
    counts = np.bincount(sets, minlength=num_sets)
    by_set = np.argsort(sets, kind="stable")
    starts = np.cumsum(counts) - counts
    rank = np.arange(n, dtype=np.int64) - starts[sets[by_set]]
    schedule = by_set[np.argsort(rank, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rank)))).tolist()

    lanes = sets[schedule]
    lane_base = lanes * assoc
    lane_block = blocks[schedule]
    lane_write = writes[schedule]
    tags = np.full((num_sets, assoc), -1, dtype=np.int64)
    stamps = np.full((num_sets, assoc), -1, dtype=np.int64)
    dirty = np.zeros((num_sets, assoc), dtype=bool)
    flat_tags = tags.reshape(-1)
    flat_stamps = stamps.reshape(-1)
    flat_dirty = dirty.reshape(-1)
    hit = np.empty(n, dtype=bool)
    victim = np.empty(n, dtype=np.int64)
    victim_dirty = np.empty(n, dtype=bool)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = lanes[lo:hi]
        block = lane_block[lo:hi]
        # The matching way if any (stamp forced below every real one),
        # else the least recently used — empty ways first (stamp -1).
        age = stamps[rows]
        age[tags[rows] == block[:, None]] = -2
        slot = lane_base[lo:hi] + age.argmin(axis=1)
        old = flat_tags[slot]
        was_dirty = flat_dirty[slot]
        h = old == block
        hit[lo:hi] = h
        victim[lo:hi] = old
        victim_dirty[lo:hi] = was_dirty & ~h
        flat_tags[slot] = block
        flat_stamps[slot] = schedule[lo:hi]
        flat_dirty[slot] = (was_dirty & h) | lane_write[lo:hi]
    out_hit = np.empty(n, dtype=bool)
    out_hit[schedule] = hit
    out_victim = np.empty(n, dtype=np.int64)
    out_victim[schedule] = np.where(hit, -1, victim)
    out_dirty = np.empty(n, dtype=bool)
    out_dirty[schedule] = victim_dirty
    return out_hit, out_victim, out_dirty, (tags, stamps, dirty)


def _lru_contents(state):
    """Compact final contents: per-set line counts, then every valid
    line's block and dirty bit, set by set, least recently used first."""
    tags, stamps, dirty = state
    order = np.argsort(stamps, axis=1)
    stamps = np.take_along_axis(stamps, order, axis=1)
    valid = stamps >= 0
    return (valid.sum(axis=1), np.take_along_axis(tags, order, axis=1)[valid],
            np.take_along_axis(dirty, order, axis=1)[valid])


class PackedSets:
    """Final contents of a cache whose lines are all of one class, packed.

    :func:`_lru_contents` output: per-set line counts, then every line's
    block and dirty bit, set by set, least recently used first. As a
    sequence it yields one tuple of ``(block, (dirty, line_class))``
    items per set, the shape ``restore_state`` installs; nothing is
    unpacked unless an install is built.
    """

    __slots__ = ("per_set", "blocks", "dirty", "line_class")

    def __init__(self, contents, line_class: str):
        self.per_set, self.blocks, self.dirty = contents
        self.line_class = line_class

    def __len__(self) -> int:
        return len(self.per_set)

    def __iter__(self):
        lines = list(zip(self.blocks.tolist(),
                         map(LINE[self.line_class].__getitem__,
                             self.dirty.tolist())))
        ends = np.cumsum(self.per_set).tolist()
        return (tuple(lines[a:b]) for a, b in zip([0] + ends[:-1], ends))

    def snapshot(self) -> tuple:
        """``(sets, class_lines)`` for ``restore_state``."""
        total = len(self.blocks)
        return self, ({self.line_class: total} if total else {})


class L2Stage:
    """Stage 1 of the staged lowering: the demand-only L2 over one trace.

    Per-miss arrays only (plus the final contents), so the memo stays
    small next to the trace it rides on: the event index of every miss,
    whether its victim was dirty, and the dirty victims' blocks.
    """

    __slots__ = ("miss_events", "victim_dirty", "dirty_victims", "contents")

    def __init__(self, miss_events, victim_dirty, dirty_victims, contents):
        self.miss_events = miss_events
        self.victim_dirty = victim_dirty
        self.dirty_victims = dirty_victims
        self.contents = contents


def l2_stage(sim, trace) -> L2Stage:
    """The memoized L2 stage of ``trace`` for ``sim``'s L2 geometry.

    Every scheme that keeps no metadata in the L2 sees the same L2
    demand stream, so this is shared by all of them; like the lowering
    memo it lives on the trace and is dropped on pickling.
    """
    l2 = sim.l2
    key = (l2.num_sets, l2.assoc)
    memo = trace.__dict__.setdefault(L2_STAGE_MEMO, {})
    stage = memo.get(key)
    if stage is None:
        blocks = (trace.addresses // BLOCK_SIZE).astype(np.int64)
        writes = np.asarray(trace.ops) == 1
        hit, victim, victim_dirty, state = _lru_lockstep(
            blocks % l2.num_sets, blocks, writes, l2.num_sets, l2.assoc)
        miss = ~hit
        victim_dirty = victim_dirty[miss]
        stage = L2Stage(
            miss_events=np.flatnonzero(miss),
            victim_dirty=victim_dirty,
            dirty_victims=victim[miss][victim_dirty],
            contents=_lru_contents(state),
        )
        while len(memo) >= _MEMO_CAPACITY:
            memo.pop(next(iter(memo)))
        memo[key] = stage
    return stage


def _staged_key(code: int, uses_cc: bool, mac_reads: bool) -> tuple:
    """The key of a staged miss's outcome ``code``: the tokens
    :func:`lower_sequential` records, in its order, for the same miss."""
    key = []
    if uses_cc:
        key.append(K_COUNTER if code & _S_CC_MISS else _T_CC_HIT)
        if code & _S_CC_WB:
            key.append(K_COUNTER_WB)
    if mac_reads:
        key += (K_MAC_FRAC, _T_IFETCH)
    if code & _S_L2_WB:
        key.append(K_DATA_WB)
        if uses_cc:
            key.append(K_COUNTER if code & _S_WB_CC_MISS else _T_CC_HIT)
            if code & _S_WB_CC_WB:
                key.append(K_COUNTER_WB)
        if mac_reads:
            key.append(K_MAC_WB)
    return tuple(key)


def lower_staged(sim, trace, sample_period: int) -> CompiledTrace:
    """The lowering for schemes whose L2 holds only demand data.

    Stage 1 (:func:`l2_stage`, memoized per trace) runs the L2. Stage 2
    runs the counter cache over the stream the misses derive: for each
    miss a demand read of its counter block, then a write for its dirty
    victim's. Both use the set-parallel kernel; the artifact is then
    assembled with array operations, equal slot for slot to what
    :func:`lower_sequential` records.
    """
    if not l2_holds_only_data(sim):
        raise ValueError("the staged lowering needs an L2 without metadata")
    n = len(trace)
    bs = BLOCK_SIZE
    stage = l2_stage(sim, trace)
    miss_events = stage.miss_events
    l2_wb = stage.victim_dirty
    m = len(miss_events)
    mac_reads = bool(sim._uses_data_macs)
    uses_cc = sim.uses_counter_cache

    counter_cache = sim.counter_cache
    cc_nsets = counter_cache.num_sets
    cc_read_miss = np.zeros(m, dtype=bool)
    cc_read_wb = np.zeros(m, dtype=bool)
    wb_cc_miss = np.zeros(m, dtype=bool)
    wb_cc_wb = np.zeros(m, dtype=bool)
    final_cc = (((),) * cc_nsets, {})
    if uses_cc:
        counter_block = counter_block_of(sim)
        miss_addrs = (trace.addresses[miss_events] // bs).astype(np.int64) * bs
        # The derived stream: each miss's read, then its dirty victim's write.
        per_miss = 1 + l2_wb.astype(np.int64)
        read_at = np.cumsum(per_miss) - per_miss
        write_at = read_at[l2_wb] + 1
        stream = np.empty(m + len(write_at), dtype=np.int64)
        stream[read_at] = counter_block(miss_addrs)
        stream[write_at] = counter_block(stage.dirty_victims * bs)
        is_write = np.zeros(len(stream), dtype=bool)
        is_write[write_at] = True
        hit, _, victim_dirty, state = _lru_lockstep(
            stream % cc_nsets, stream, is_write, cc_nsets, counter_cache.assoc)
        cc_read_miss = ~hit[read_at]
        cc_read_wb = victim_dirty[read_at]
        wb_cc_miss[l2_wb] = ~hit[write_at]
        wb_cc_wb[l2_wb] = victim_dirty[write_at]
        final_cc = PackedSets(_lru_contents(state), COUNTER).snapshot()

    codes = (cc_read_miss * _S_CC_MISS | cc_read_wb * _S_CC_WB
             | l2_wb * _S_L2_WB | wb_cc_miss * _S_WB_CC_MISS
             | wb_cc_wb * _S_WB_CC_WB)
    seen, first = np.unique(codes, return_index=True)
    in_order = seen[np.argsort(first)]
    intern = np.zeros(_S_CODES, dtype=np.int64)
    intern[in_order] = np.arange(len(in_order))
    keys = [_staged_key(code, uses_cc, mac_reads) for code in in_order.tolist()]

    flags = np.zeros(n, dtype=np.uint8)
    flags[miss_events] = 1
    node_cache = sim.node_cache
    ticks = np.zeros((n // sample_period, 5), dtype=np.int64)
    ticks[:, 0] = sim.l2.num_lines  # data lines plus free ones, always
    return CompiledTrace(
        n=n,
        miss_flags=flags.tobytes(),
        **_assemble(keys, intern[codes], True),
        ticks=ticks,
        final_l2=PackedSets(stage.contents, DATA).snapshot(),
        final_cc=final_cc,
        final_node=(None if node_cache is None else
                    (((),) * node_cache.num_sets, {})),
    )


def compiled_for(sim, trace, sample_period: int) -> CompiledTrace:
    """The memoized lowering of ``trace`` for ``sim``'s traffic geometry.

    Cached on the trace instance (like :meth:`Trace.pres`, and
    likewise dropped on pickling) with a small capacity bound: a sweep
    replays one geometry per trace, so a deep artifact stack would only
    hold memory hostage. Each probe is recorded on the simulator's
    :class:`~repro.fastpath.EngineTelemetry` (hit = the lowering was
    already memoized).
    """
    key = classification_key(sim, sample_period)
    memo = trace.__dict__.setdefault("_compiled", {})
    artifact = memo.get(key)
    telemetry = getattr(sim, "engine_telemetry", None)
    if telemetry is not None:
        telemetry.record_lowering(artifact is not None)
    if artifact is None:
        while len(memo) >= _MEMO_CAPACITY:
            memo.pop(next(iter(memo)))
        artifact = memo[key] = lower(sim, trace, sample_period)
    return artifact


def ineligibility(sim, trace) -> str | None:
    """Why a compiled replay cannot run, or ``None`` when it can.

    The returned string is one of :data:`repro.fastpath.FALLBACK_REASONS`
    and feeds the engine-selection telemetry.
    """
    if sanitizer.active() is not None:
        return "sanitizer_armed"
    if sim._deferred_updates:
        # The lowering records synchronous tree-walk traffic; a deferred
        # scheme's pending-walk queue is simulator state that outlives a
        # run, which only the live walk keeps.
        return "deferred_updates"
    node_cache = sim.node_cache
    if (sim.l2.occupied_lines or sim.counter_cache.occupied_lines
            or (node_cache is not None and node_cache.occupied_lines)):
        return "warm_caches"
    if len(trace) == 0:
        return "empty_trace"
    return None


def _run_segment(events, prog, mp, now, bf, queue, exposed,
                 full_dur, mem_latency, aes_latency, mac_latency,
                 hit_latency, overlap, uses_cc, serial_decrypt,
                 verify_on_path, hooks=None, tail=()):
    """Replay ``events``, an iterator of ``(clock increment, miss flag)``
    pairs, then the ``tail`` transfers: the section-6 clock.

    Per miss: the demand fetch on the serial bus, the AES stall a
    counter-cache miss exposes (the counter fetch is then the first
    transfer after the demand fetch) or serialized decryption, the rest
    of the miss's transfers, precise verification's MAC and fetch round
    trip, and the stall overlap. Transfers after an event's demand fetch
    are back-to-back (the bus-free timestamp already exceeds the event
    clock), so their start cycles read straight from the running ``bf``.
    The tail, a deferred tree's end-of-run drain, starts once the bus is
    free after the last event and never advances ``now``. ``hooks`` (a
    traced run's :class:`~repro.obs.adapters.SimHooks`) hears every miss
    at its decrypt-exposed point and at its retirement, and the tail as
    it starts.
    """
    for pre, mf in events:
        now += pre
        if mf:
            rest, stall_flag, ifetch = prog[mp]
            mp += 1
            start = bf if bf > now else now
            queue += start - now
            data_ready = start + mem_latency
            bf = start + full_dur
            extra = 0.0
            if stall_flag:
                # The pad waits for the counter block, whose fetch starts
                # as the demand fetch ends.
                stall = ((bf + mem_latency) + aes_latency) - data_ready
                extra = stall if stall > 0.0 else 0.0
                exposed += extra
            elif uses_cc:
                exposed += extra
            elif serial_decrypt:
                extra = aes_latency  # decryption serialized after the fetch
                exposed += extra
            if hooks is not None:
                hooks.miss(now, start, extra)
            for dur in rest:
                queue += bf - now
                bf = bf + dur
            if verify_on_path:
                # Precise verification: the load cannot retire until the
                # MAC chain checks out; the hash latency always shows, plus
                # a serialized memory round trip when metadata was fetched.
                extra += mac_latency
                if ifetch:
                    extra += mem_latency
            raw = (data_ready - now) + extra
            step = hit_latency + raw * overlap
            now += step
            if hooks is not None:
                hooks.retire(now, raw, step)
        else:
            now += hit_latency
    if tail:
        bf = bf if bf > now else now
        if hooks is not None:
            hooks.drain(now, bf)
        for dur in tail:
            queue += bf - now
            bf = bf + dur
    return mp, now, bf, queue, exposed


class ClockRun:
    """A memoized lowering's clock run at one timing point, recorded.

    The clock's path (the event clock ``now``, the bus-free time and the
    miss pointer) depends only on the lowering, the trace's clock
    increments and the timing parameters. The warmup only picks where
    the bus-queue and exposed-decryption sums restart and settlement
    begins. So one full replay, recorded through :func:`_run_segment`'s
    ``hooks`` seam, serves every warmup at its timing point
    (:meth:`view`) without running the clock again. The record keeps,
    per miss, its event clock and the bus start of its demand fetch
    (16 B), and the run's end state ``(now, bf)``.
    """

    __slots__ = ("now", "start", "end")

    def __init__(self):
        self.now = array("d")
        self.start = array("d")
        self.end = None

    def miss(self, now, start, extra):
        self.now.append(now)
        self.start.append(start)

    def retire(self, now, raw, step):
        pass

    def close(self, now: float, bf: float) -> "ClockRun":
        self.now = np.frombuffer(self.now)
        self.start = np.frombuffer(self.start)
        self.end = (now, bf)
        return self

    def view(self, artifact, boundary: int, pres, full_dur: int,
             frac_dur: int, timing: tuple) -> tuple:
        """``(first, measured_from, queue, exposed)`` for a warmup of
        ``boundary`` events: the first measured miss, the clock at the
        boundary, and the bus-queue and exposed-decryption sums over the
        measured misses.

        The clock at the boundary comes from :func:`_run_segment` over
        the last warmup miss and the hits after it. The sums re-derive
        each measured miss's increments from its recorded event clock and
        start and its key's transfer durations, in the clock's order, and
        add them with ``np.add.accumulate``, which is sequential and so
        rounds exactly as the clock's running sums do.
        """
        flags = artifact.miss_flags
        first = flags.count(1, 0, boundary)
        if first:
            # Resume at the last warmup miss: its recorded event clock
            # already holds its increment, and a bus-free time equal to
            # its recorded start gives that start back.
            at = flags.rindex(1, 0, boundary)
            events = chain(((0.0, 1),),
                           zip(pres[at + 1:boundary], flags[at + 1:boundary]))
            now = float(self.now[first - 1])
            bf = float(self.start[first - 1])
        else:
            events = zip(pres[:boundary], flags[:boundary])  # hits only
            now = bf = 0.0
        _, measured_from, _, _, _ = _run_segment(
            events, artifact.prog(full_dur, frac_dur), first - 1 if first else 0,
            now, bf, 0.0, 0.0, *timing)
        if first == artifact.misses:
            return first, measured_from, 0.0, 0.0

        _, mem_latency, aes_latency, _, _, _, uses_cc, serial_decrypt, _ = timing
        by_slot, key_lengths, key_rank, key_stalled = artifact.key_slots(
            full_dur, frac_dur)
        keys = artifact.key_idx[first:]
        lengths = key_lengths[keys]
        now = self.now[first:]
        start = self.start[first:]

        # Per miss, its demand fetch's wait and then one per further
        # transfer, back to back on the bus, laid out in clock order.
        # Ordered longest first, the misses with a transfer in slot s are
        # a prefix of the order (its first ``reach[s]``), so a pass per
        # slot advances a prefix of the bus-free times.
        spans = lengths + 1
        ends = np.cumsum(spans)
        base = ends - spans  # each miss's first wait
        waits = np.empty(int(ends[-1]))
        waits[base] = start - now
        width = len(by_slot)
        at_most = np.cumsum(np.bincount(lengths, minlength=width + 1))
        reach = (len(keys) - at_most[:width]).tolist()
        order = np.argsort(key_rank[keys], kind="stable")[:reach[0] if reach else 0]
        clock, at, moved = now[order], base[order] + 1, keys[order]
        bf = start[order] + full_dur
        for slot, (count, durations) in enumerate(zip(reach, by_slot)):
            bf = bf[:count]
            waits[at[:count] + slot] = bf - clock[:count]
            bf = bf + durations[moved[:count]]
        queue = np.add.accumulate(waits)[-1]

        # Exposed cycles: a counter-read miss exposes the pad's wait past
        # its data, if positive, and serialized decryption the AES
        # latency on every other miss. The running sum never holds -0.0,
        # so a zero term changes nothing: without serialized decryption
        # the sum runs over the positive stalls alone.
        stalled = key_stalled[keys]
        fetch = start[stalled]
        stall = (((fetch + full_dur) + mem_latency) + aes_latency) - (
            fetch + mem_latency)
        if uses_cc or not serial_decrypt:
            extra = stall[stall > 0.0]
        else:
            extra = np.full(len(keys), float(aes_latency))
            extra[stalled] = np.where(stall > 0.0, stall, 0.0)
        exposed = np.add.accumulate(extra)[-1] if len(extra) else 0.0
        return first, measured_from, float(queue), float(exposed)


def _replay(sim, trace, warmup: float, sample_period: int, lowered,
            hooks=None, drain: bool = False, clocks: dict | None = None) -> tuple:
    """Replay ``trace`` through ``sim``'s clock and settle its statistics.

    The one path every run takes. ``lowered(lo, hi, record, drain)``
    returns a lowering whose next events are the trace's events ``lo``
    to ``hi`` (the memoized replay's whole-trace lowering, or a live walk
    of that chunk). Warmup events replay first and are never settled;
    measured events replay in one chunk, or, with ``hooks``, in chunks of
    ``hooks.interval`` events, each settled before its sample. ``drain``
    replays a deferred tree's end-of-run drain before the final sample.
    Integer tallies are credited per chunk; the float sums (bus queue
    cycles, exposed decryption) are the clock's running totals, assigned
    whole, so every sample is exact. ``clocks``, the memoized lowering's
    clock memo, serves a recorded timing point from its
    :class:`ClockRun`, records a point's second replay and notes its
    first. Returns ``(now, measured_from, measured_instructions)``.
    """
    n = len(trace)
    l2 = sim.l2
    bus = sim.bus
    full_dur = bus.duration(1.0)
    frac_dur = bus.duration(sim._mac_bytes / BLOCK_SIZE)
    timing = (full_dur, sim.mem_latency, sim.aes_latency, sim.mac_latency,
              sim.l2_hit_latency, sim.overlap, sim.uses_counter_cache,
              sim._serial_decrypt, sim._verify_on_path)
    pres = trace.pres(sim.issue_width)
    now, bf, queue, exposed = 0.0, bus.free_at, 0.0, 0.0
    artifact = flags = prog = None
    mp = 0
    ticks = np.zeros((0, 5), dtype=np.int64)  # occupancy rows so far
    clock = recorder = None
    if clocks is not None:
        point = (sim.issue_width, frac_dur, bf, *timing)
        if point in clocks:  # a repeat: record the clock run, or reuse it
            clock = clocks[point]
            if clock is None:
                recorder = ClockRun()
            sim.engine_telemetry.record_clock(clock is not None)
    increments = iter(pres)

    def replay(lo, hi, armed, tail=False):
        nonlocal artifact, flags, prog, mp, ticks, now, bf, queue, exposed
        lowering = lowered(lo, hi, armed is not None, tail)
        if lowering is not artifact:
            artifact, flags, mp = lowering, iter(lowering.miss_flags), 0
            prog = artifact.prog(full_dur, frac_dur)
            ticks = np.concatenate((ticks, artifact.ticks))
            if armed is not None:
                armed.records = iter(artifact.records)
        first = mp
        mp, now, bf, queue, exposed = _run_segment(
            zip(islice(increments, hi - lo), flags), prog, mp, now, bf, queue,
            exposed, *timing, armed if recorder is None else recorder,
            artifact.tail_program(full_dur, frac_dur) if tail else ())
        return first

    boundary = min(int(n * warmup), n)
    if clock is not None:
        artifact = lowered(0, n, False, False)
        ticks = artifact.ticks
        first, measured_from, queue, exposed = clock.view(
            artifact, boundary, pres, full_dur, frac_dur, timing)
        mp = artifact.misses
        now, bf = clock.end
    else:
        if boundary:
            replay(0, boundary, None)
        measured_from = now
        queue = exposed = 0.0
    kinds = np.zeros(_N_KINDS, dtype=np.int64)  # measured transfers by kind
    busy = 0
    settled_ticks = boundary // sample_period

    def settle(first, events, upto_tick, tail=False):
        nonlocal kinds, busy, settled_ticks
        if artifact is None:
            return  # an empty trace: nothing replayed, nothing to credit
        meta, chunk_kinds, chunk_busy = artifact.settle(
            first, mp, full_dur, frac_dur, tail)
        misses = mp - first
        credit(sim, meta, events - misses, misses)
        sim.demand_accesses += events
        sim.demand_misses += misses
        sim.exposed_cycles = exposed
        kinds = kinds + chunk_kinds
        busy += chunk_busy
        by_kind = {}  # reported kinds in code order: fetches, then writebacks
        for name, count in zip(KIND_NAMES, kinds.tolist()):
            if count:
                by_kind[name] = by_kind.get(name, 0) + count
        bus.reset_stats()
        bus.credit(int(kinds.sum()), float(busy), queue, by_kind, bf)
        rows = ticks[settled_ticks:upto_tick]
        if len(rows):
            settled_ticks += len(rows)
            l2.credit_occupancy(len(rows) * l2.num_lines, dict(zip(
                (DATA, CODE, COUNTER, MERKLE, MAC), rows.sum(axis=0).tolist())))

    armed = hooks if hooks is not None and boundary < n else None
    cuts = [n]
    if armed is not None:
        armed.begin(now, _grants(full_dur, frac_dur))
        cuts = [*range(boundary + armed.interval, n, armed.interval), n]
    lo = boundary
    for hi in cuts if boundary < n else ():
        if clock is None:
            first = replay(lo, hi, armed)
        # A sample comes before the occupancy tick after its last event.
        settle(first, hi - lo, n // sample_period if armed is None
               else (hi - 1) // sample_period)
        if armed is not None:
            armed.hits(hi - lo - (mp - first))
            if (hi - boundary) % armed.interval == 0:
                armed.sample(now, hi - boundary)
        lo = hi
    if drain:
        # A deferred tree owes the bus its queued walks before the run's
        # traffic accounting closes.
        settle(replay(n, n, armed, tail=True), 0, n // sample_period, tail=True)
    elif armed is not None:
        settle(mp, 0, n // sample_period)
    if armed is not None:
        armed.sample(now, n - boundary)  # the final sample: the aggregate
    if recorder is not None:
        clocks[point] = recorder.close(now, bf)
    elif clocks is not None and clock is None:
        # A first replay at this point runs unrecorded: a lowering
        # replayed once per point (a sweep's cells, a sweep of timing
        # parameters) never pays for a record.
        while len(clocks) >= _CLOCK_CAPACITY:
            clocks.pop(next(iter(clocks)))
        clocks[point] = None

    measured_instructions = (int(trace.gaps[boundary:].sum(dtype=np.int64))
                             + n - boundary)
    return now, measured_from, measured_instructions


def _grants(full_dur: int, frac_dur: int) -> tuple:
    """Per token: the bus kind and duration of its transfer (a traced
    replay's ``bus_grant``), or ``None`` for a marker."""
    durs = _durations(full_dur, frac_dur)
    return tuple(None if kind is None else (KIND_NAMES[kind], durs[kind])
                 for kind in _TOKEN_KIND)


def execute_compiled(sim, trace, warmup: float, sample_period: int):
    """Replay ``trace``'s memoized lowering through ``sim``.

    :func:`repro.fastpath.execute` calls it only for runs
    :func:`ineligibility` accepts (cold caches, among others).
    The lowering starts from empty caches, and the recorded final state
    is installed on the real caches afterwards (deferred, built on first
    touch) so warm reuse and the live line-count gauges behave exactly
    as if the caches had been walked live.
    """
    artifact = compiled_for(sim, trace, sample_period)
    result = _replay(sim, trace, warmup, sample_period,
                     lambda lo, hi, record, drain: artifact,
                     clocks=artifact._clocks)
    sim.l2.restore_state(*artifact.final_l2)
    sim.counter_cache.restore_state(*artifact.final_cc)
    if sim.node_cache is not None:
        sim.node_cache.restore_state(*artifact.final_node)
    return result


def execute_live(sim, trace, warmup: float, sample_period: int, session):
    """Walk ``sim``'s own caches, then replay the walk through the clock.

    :func:`repro.fastpath.execute` sends here every run the memoized
    replay passes over. :func:`lower_sequential` walks the live caches
    chunk by chunk (with the deferred queue, the armed sanitizer's
    per-fill checks and, traced, the walk's emissions), and each chunk
    goes through the same replay and settlement as a memoized lowering.
    Nothing is memoized and nothing is installed: the final contents are
    already in place. With an active obs ``session``, walk, replay and
    settlement alternate every ``interval`` measured events, so each
    interval sample reads the live state the moment it is taken.
    """
    hooks = None if session is None else SimHooks(sim, session)

    def lowered(lo, hi, record, drain):
        return lower_sequential(sim, trace, sample_period, lo, hi, live=True,
                                record=record, drain=drain)

    return _replay(sim, trace, warmup, sample_period, lowered, hooks,
                   drain=sim._deferred_updates)
