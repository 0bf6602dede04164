"""The trace pre-compiler: lower once, replay per configuration.

The timing model's event loop interleaves two very different kinds of
work. The *cache state machine* — L2/counter/node lookups, LRU motion,
evictions, the metadata traffic they trigger — depends only on the
access sequence and the machine's traffic-shaping geometry (cache
shapes, scheme flags, metadata layout). The *clock arithmetic* — bus
queueing, exposed decrypt latency, stall overlap — depends on the
timing parameters (latencies, bus speed, issue width, warmup) but never
feeds back into a single cache decision. :func:`lower` exploits that
split: it runs the state machine once, off the clock, and records its
complete observable behaviour as a :class:`CompiledTrace` — per-event
hit/miss flags, each miss's bus-transfer program (interned patterns of
transfer kinds), stall and verification markers, per-miss statistics
deltas, L2 occupancy samples, and the final cache contents.

:func:`execute_compiled` then replays a lowering under any timing
parameters: a lean sequential loop reproduces the reference clock
arithmetic operation for operation (float rounding is order-sensitive,
so the per-event additions are replayed, never re-associated), while
every order-insensitive statistic settles through NumPy slice sums and
the owners' batch-credit APIs. Results are byte-identical to the
reference loop — the committed figure-6 golden and the equivalence
property tests pin this.

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
:func:`lower_sequential`, the pure-Python walk that stays the reference
the staged route is tested against.

The lowering is memoized on the :class:`~repro.sim.trace.Trace` keyed
by the traffic-shaping geometry, so it is paid once and replayed by
every run that shares it: repeated runs of one cell, golden
regeneration, and `repro.evalx` sweeps that vary only timing knobs
(memory/AES/MAC latency, bus speed, issue width, overlap, warmup,
precise verification) replay the same artifact — the multiplicative
grid win. A replay requires cold caches (it installs the recorded final
contents afterwards, so back-to-back warm ``run()`` calls fall back to
the per-event engine) and, like every fast path, steps aside when the
runtime sanitizer is armed.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat

import numpy as np

from ..core import sanitizer
from ..mem.cache import CODE, COUNTER, DATA, MAC, MERKLE
from ..mem.layout import BLOCK_SIZE

# Transfer-kind codes. Each miss's bus traffic is recorded as a tuple of
# these (the *pattern*, excluding the leading demand fetch, which every
# miss issues first). Codes map to (reported kind, duration class):
# everything moves a full block except the uncached-MAC transfers.
K_DATA = 0
K_COUNTER = 1
K_MERKLE = 2
K_MAC = 3        # cached data MAC: full block
K_MAC_FRAC = 4   # uncached data MAC read: mac_bytes only
K_DATA_WB = 5
K_COUNTER_WB = 6
K_MERKLE_WB = 7
K_MAC_WB = 8     # uncached data MAC read-modify-write: mac_bytes only

_N_KINDS = 9
# Reported-kind settlement order matches the per-event engine's flush.
_KIND_SETTLEMENT = (
    ("data", (K_DATA,)),
    ("counter", (K_COUNTER,)),
    ("merkle", (K_MERKLE,)),
    ("mac", (K_MAC, K_MAC_FRAC)),
    ("data_wb", (K_DATA_WB,)),
    ("counter_wb", (K_COUNTER_WB,)),
    ("merkle_wb", (K_MERKLE_WB,)),
    ("mac_wb", (K_MAC_WB,)),
)

# Columns of the per-miss statistics-delta matrix (metadata traffic
# only; the demand hit/miss itself is derived from the miss flags).
_L2H, _L2M, _L2WB = 0, 1, 2
_CCH, _CCM, _CCWB = 3, 4, 5
_TH, _TM, _TWB = 6, 7, 8
_CA, _CM = 9, 10
_N_META = 11

_MEMO_CAPACITY = 2  # lowerings kept per Trace (sweeps replay one)

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


class CompiledTrace:
    """One trace lowered for one traffic-shaping geometry.

    Immutable after :func:`lower` builds it; the per-timing-parameter
    binding memos (``pres``/``prog``/``busy_per_miss``) cache derived
    forms keyed by the timing knobs they depend on.
    """

    __slots__ = (
        "n",
        "miss_flags",
        "miss_cum",
        "pattern_list",
        "pat_idx",
        "cc_stalls",
        "iflags",
        "kcounts",
        "transfers",
        "metas",
        "ticks",
        "gaps",
        "final_l2",
        "final_cc",
        "final_node",
        "_pres_memo",
        "_prog_memo",
        "_busy_memo",
    )

    def __init__(self, n, miss_flags, miss_cum, pattern_list, pat_idx,
                 cc_stalls, iflags, kcounts, metas, ticks, gaps,
                 final_l2, final_cc, final_node):
        self.n = n
        self.miss_flags = miss_flags
        self.miss_cum = miss_cum
        self.pattern_list = pattern_list
        self.pat_idx = pat_idx
        self.cc_stalls = cc_stalls
        self.iflags = iflags
        self.kcounts = kcounts
        self.transfers = kcounts.sum(axis=1, dtype=np.int64)
        self.metas = metas
        self.ticks = ticks
        self.gaps = gaps
        self.final_l2 = final_l2
        self.final_cc = final_cc
        self.final_node = final_node
        self._pres_memo = {}
        self._prog_memo = {}
        self._busy_memo = {}

    @property
    def misses(self) -> int:
        return len(self.pat_idx)

    def pres(self, issue_width: int) -> list:
        """Per-event clock increments ``gap / issue`` as Python floats.

        IEEE-754 division of exactly-representable integers matches the
        reference loop's inline ``gap / issue`` bit for bit.
        """
        cached = self._pres_memo.get(issue_width)
        if cached is None:
            cached = (self.gaps / issue_width).tolist()
            self._pres_memo[issue_width] = cached
        return cached

    def _durations(self, full_dur: int, frac_dur: int) -> tuple:
        durs = [full_dur] * _N_KINDS
        durs[K_MAC_FRAC] = frac_dur
        durs[K_MAC_WB] = frac_dur
        return tuple(durs)

    def prog(self, full_dur: int, frac_dur: int) -> list:
        """The per-miss replay program ``(rest_durations, stall, ifetch)``.

        ``rest_durations`` is the event's bus transfers after the demand
        fetch, as duration tuples (interned per pattern); ``stall`` marks
        a demand counter-read miss (the counter fetch is then always the
        first rest transfer); ``ifetch`` marks a nonzero integrity fetch
        count for precise verification.
        """
        key = (full_dur, frac_dur)
        cached = self._prog_memo.get(key)
        if cached is None:
            durs = self._durations(full_dur, frac_dur)
            pattern_durs = [tuple(durs[k] for k in pattern)
                            for pattern in self.pattern_list]
            cached = list(zip((pattern_durs[i] for i in self.pat_idx),
                              self.cc_stalls, self.iflags))
            self._prog_memo[key] = cached
        return cached

    def busy_per_miss(self, full_dur: int, frac_dur: int) -> np.ndarray:
        """Total bus occupancy cycles of each miss event (int64)."""
        key = (full_dur, frac_dur)
        cached = self._busy_memo.get(key)
        if cached is None:
            durvec = np.asarray(self._durations(full_dur, frac_dur),
                                dtype=np.int64)
            cached = self.kcounts @ durvec
            self._busy_memo[key] = cached
        return cached


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


def lower_sequential(sim, trace, sample_period: int) -> CompiledTrace:
    """The reference lowering: one pure-Python walk over the events.

    The state transitions transliterate the per-event engine's inlined
    miss path (`repro.fastpath.engine._make_miss_engine`) — which itself
    mirrors ``TimingSimulator._miss`` and its helpers operation for
    operation — with every bus request and statistics delta recorded
    instead of timed.
    """
    decoded = trace.decoded()
    ops = decoded.ops
    addresses = decoded.addresses

    l2 = sim.l2
    counter_cache = sim.counter_cache
    node_cache = sim.node_cache

    bs = BLOCK_SIZE
    demand_block_size = l2.block_size
    uses_cc = sim.uses_counter_cache
    walks_tree = sim._walks_tree
    tree_covers_data = sim._tree_covers_data
    uses_data_macs = sim._uses_data_macs
    cache_data_macs = sim._cache_data_macs
    walk_bases = tuple(sim._walk_bases)
    arity = sim._arity
    covered_start = sim._covered_start
    mac_base = sim._mac_base
    mac_bytes = sim._mac_bytes
    ctr_base = sim._ctr_base if uses_cc else 0
    cb_span = sim._cb_span if uses_cc else 1

    # Model cache state, evolved exactly as the engine evolves the real
    # caches (cold start — execute_compiled only replays onto cold ones).
    l2_nsets = l2.num_sets
    l2_assoc = l2.assoc
    l2_num_lines = l2.num_lines
    l2_sets = [OrderedDict() for _ in range(l2_nsets)]
    l2_classes: dict = {}
    cc_nsets = counter_cache.num_sets
    cc_assoc = counter_cache.assoc
    cc_sets = [OrderedDict() for _ in range(cc_nsets)]
    cc_classes: dict = {}
    if node_cache is not None:
        t_nsets = node_cache.num_sets
        t_assoc = node_cache.assoc
        t_sets = [OrderedDict() for _ in range(t_nsets)]
        t_classes: dict = {}
        tree_is_l2 = False
    else:
        t_nsets, t_assoc = l2_nsets, l2_assoc
        t_sets, t_classes = l2_sets, l2_classes
        tree_is_l2 = True

    # Recorded program.
    miss_flags: list = []
    pat_idx: list = []
    cc_stalls: list = []
    iflags: list = []
    kcount_rows: list = []
    meta_rows: list = []
    patterns: dict = {}
    pattern_list: list = []
    ticks: list = []

    # Per-miss recording slots, rebound by the demand loop per miss.
    row: list = []
    krow: list = []
    ev_kinds: list = []

    def tree_walk(covered_addr, make_dirty):
        index = (covered_addr - covered_start) // bs
        fetched = 0
        for base in walk_bases:
            index //= arity
            node_addr = base + index * bs
            block = node_addr // bs
            cache_set = t_sets[block % t_nsets]
            entry = cache_set.get(block)
            if entry is not None:
                cache_set.move_to_end(block)
                if make_dirty and not entry[0]:
                    cache_set[block] = (True, entry[1])
                row[_L2H if tree_is_l2 else _TH] += 1
                return fetched
            row[_L2M if tree_is_l2 else _TM] += 1
            krow[K_MERKLE] += 1
            ev_kinds.append(K_MERKLE)
            fetched += 1
            if len(cache_set) >= t_assoc:
                vblock, (vdirty, vclass) = cache_set.popitem(last=False)
                t_classes[vclass] = t_classes.get(vclass, 1) - 1
                if vdirty:
                    row[_L2WB if tree_is_l2 else _TWB] += 1
                    cache_set[block] = (make_dirty, MERKLE)
                    t_classes[MERKLE] = t_classes.get(MERKLE, 0) + 1
                    writeback(vblock, vclass)
                    continue
            cache_set[block] = (make_dirty, MERKLE)
            t_classes[MERKLE] = t_classes.get(MERKLE, 0) + 1
        return fetched

    def counter_access(addr, write):
        # Returns True when a demand *read* missed the counter cache —
        # the replay then exposes the counter-fetch stall.
        cb_addr = ctr_base + (addr // cb_span) * bs
        row[_CA] += 1
        block = cb_addr // bs
        cache_set = cc_sets[block % cc_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = (True, entry[1])
            row[_CCH] += 1
            return False
        row[_CCM] += 1
        row[_CM] += 1
        krow[K_COUNTER] += 1
        ev_kinds.append(K_COUNTER)
        if len(cache_set) >= cc_assoc:
            vblock, (vdirty, vclass) = cache_set.popitem(last=False)
            cc_classes[vclass] = cc_classes.get(vclass, 1) - 1
            cache_set[block] = (write, COUNTER)
            cc_classes[COUNTER] = cc_classes.get(COUNTER, 0) + 1
            if vdirty:
                row[_CCWB] += 1
                krow[K_COUNTER_WB] += 1
                ev_kinds.append(K_COUNTER_WB)
                if walks_tree:
                    tree_walk(vblock * bs, True)
        else:
            cache_set[block] = (write, COUNTER)
            cc_classes[COUNTER] = cc_classes.get(COUNTER, 0) + 1
        if walks_tree:
            tree_walk(cb_addr, False)
        return not write

    def mac_traffic(addr, write):
        mac_addr = mac_base + (addr // bs * mac_bytes // bs) * bs
        if cache_data_macs:
            block = mac_addr // bs
            cache_set = l2_sets[block % l2_nsets]
            entry = cache_set.get(block)
            if entry is not None:
                cache_set.move_to_end(block)
                if write and not entry[0]:
                    cache_set[block] = (True, entry[1])
                row[_L2H] += 1
                return 0
            row[_L2M] += 1
            krow[K_MAC] += 1
            ev_kinds.append(K_MAC)
            if len(cache_set) >= l2_assoc:
                vblock, (vdirty, vclass) = cache_set.popitem(last=False)
                l2_classes[vclass] = l2_classes.get(vclass, 1) - 1
                cache_set[block] = (write, MAC)
                l2_classes[MAC] = l2_classes.get(MAC, 0) + 1
                if vdirty:
                    row[_L2WB] += 1
                    writeback(vblock, vclass)
            else:
                cache_set[block] = (write, MAC)
                l2_classes[MAC] = l2_classes.get(MAC, 0) + 1
            return 1
        # Uncached MACs: only the MAC itself crosses the bus.
        if write:
            krow[K_MAC_WB] += 1
            ev_kinds.append(K_MAC_WB)
            return 0
        krow[K_MAC_FRAC] += 1
        ev_kinds.append(K_MAC_FRAC)
        return 1

    def writeback(vblock, vclass):
        if vclass == MERKLE or vclass == MAC:
            krow[K_MERKLE_WB] += 1
            ev_kinds.append(K_MERKLE_WB)
            return
        krow[K_DATA_WB] += 1
        ev_kinds.append(K_DATA_WB)
        addr = vblock * bs
        if uses_cc:
            counter_access(addr, True)
        if tree_covers_data:
            tree_walk(addr, True)
        elif uses_data_macs:
            mac_traffic(addr, True)

    countdown = sample_period
    for op, addr in zip(ops, addresses):
        write = op == 1
        block = addr // demand_block_size
        cache_set = l2_sets[block % l2_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = (True, entry[1])
            miss_flags.append(0)
        else:
            miss_flags.append(1)
            row = [0] * _N_META
            krow = [0] * _N_KINDS
            ev_kinds = []
            krow[K_DATA] += 1  # the demand fetch, always transfer 0
            stall = False
            integrity = 0
            if uses_cc:
                stall = counter_access(addr, False)
            if tree_covers_data:
                integrity = tree_walk(addr, False)
            elif uses_data_macs:
                integrity = mac_traffic(addr, False)
            # insert(addr, DATA, dirty=write) into the L2
            dblock = addr // bs
            dset = l2_sets[dblock % l2_nsets]
            dentry = dset.get(dblock)
            if dentry is not None:
                # Refill of a present line (a metadata insert raced the fill).
                dset[dblock] = (dentry[0] or write, DATA)
                dset.move_to_end(dblock)
                if dentry[1] != DATA:
                    l2_classes[dentry[1]] = l2_classes.get(dentry[1], 1) - 1
                    l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
            elif len(dset) >= l2_assoc:
                vblock, (vdirty, vclass) = dset.popitem(last=False)
                l2_classes[vclass] = l2_classes.get(vclass, 1) - 1
                dset[dblock] = (write, DATA)
                l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
                if vdirty:
                    row[_L2WB] += 1
                    writeback(vblock, vclass)
            else:
                dset[dblock] = (write, DATA)
                l2_classes[DATA] = l2_classes.get(DATA, 0) + 1

            pattern = tuple(ev_kinds)
            idx = patterns.get(pattern)
            if idx is None:
                idx = patterns[pattern] = len(pattern_list)
                pattern_list.append(pattern)
            pat_idx.append(idx)
            cc_stalls.append(1 if stall else 0)
            iflags.append(1 if integrity else 0)
            kcount_rows.append(krow)
            meta_rows.append(row)
        countdown -= 1
        if countdown == 0:
            countdown = sample_period
            free = l2_num_lines - sum(l2_classes.values())
            ticks.append([
                l2_classes.get(DATA, 0) + free,
                l2_classes.get(CODE, 0),
                l2_classes.get(COUNTER, 0),
                l2_classes.get(MERKLE, 0),
                l2_classes.get(MAC, 0),
            ])

    m = len(pat_idx)
    return CompiledTrace(
        n=len(miss_flags),
        miss_flags=miss_flags,
        miss_cum=np.cumsum(np.asarray(miss_flags, dtype=np.int64)),
        pattern_list=pattern_list,
        pat_idx=pat_idx,
        cc_stalls=cc_stalls,
        iflags=iflags,
        kcounts=np.asarray(kcount_rows, dtype=np.int64).reshape(m, _N_KINDS),
        metas=np.asarray(meta_rows, dtype=np.int64).reshape(m, _N_META),
        ticks=np.asarray(ticks, dtype=np.int64).reshape(len(ticks), 5),
        gaps=trace.gaps,
        final_l2=(tuple(tuple(s.items()) for s in l2_sets), dict(l2_classes)),
        final_cc=(tuple(tuple(s.items()) for s in cc_sets), dict(cc_classes)),
        final_node=(None if node_cache is None else
                    (tuple(tuple(s.items()) for s in t_sets), dict(t_classes))),
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


def _restorable(contents, line_class):
    """A ``restore_state`` snapshot (what ``lower_sequential`` records)
    from :func:`_lru_contents` output; every line is of ``line_class``."""
    per_set, blocks, dirty = contents
    lines = list(zip(blocks.tolist(),
                     zip(dirty.tolist(), repeat(line_class))))
    ends = np.cumsum(per_set).tolist()
    sets = tuple(tuple(lines[a:b]) for a, b in zip([0] + ends[:-1], ends))
    total = len(lines)
    return sets, ({line_class: total} if total else {})


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


def _pattern(code: int, mac_reads: bool) -> tuple:
    """The transfer pattern of a staged miss's outcome ``code`` — the
    order ``lower_sequential`` appends kinds in for the same outcome."""
    kinds = []
    if code & _S_CC_MISS:
        kinds.append(K_COUNTER)
    if code & _S_CC_WB:
        kinds.append(K_COUNTER_WB)
    if mac_reads:
        kinds.append(K_MAC_FRAC)
    if code & _S_L2_WB:
        kinds.append(K_DATA_WB)
        if code & _S_WB_CC_MISS:
            kinds.append(K_COUNTER)
        if code & _S_WB_CC_WB:
            kinds.append(K_COUNTER_WB)
        if mac_reads:
            kinds.append(K_MAC_WB)
    return tuple(kinds)


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

    counter_cache = sim.counter_cache
    cc_nsets = counter_cache.num_sets
    cc_read_miss = np.zeros(m, dtype=bool)
    cc_read_wb = np.zeros(m, dtype=bool)
    wb_cc_miss = np.zeros(m, dtype=bool)
    wb_cc_wb = np.zeros(m, dtype=bool)
    final_cc = (((),) * cc_nsets, {})
    if sim.uses_counter_cache:
        ctr_base = sim._ctr_base
        cb_span = sim._cb_span
        miss_addrs = (trace.addresses[miss_events] // bs).astype(np.int64) * bs
        victim_addrs = stage.dirty_victims * bs
        # The derived stream: each miss's read, then its dirty victim's write.
        per_miss = 1 + l2_wb.astype(np.int64)
        read_at = np.cumsum(per_miss) - per_miss
        write_at = read_at[l2_wb] + 1
        stream = np.empty(m + len(write_at), dtype=np.int64)
        stream[read_at] = (ctr_base + (miss_addrs // cb_span) * bs) // bs
        stream[write_at] = (ctr_base + (victim_addrs // cb_span) * bs) // bs
        is_write = np.zeros(len(stream), dtype=bool)
        is_write[write_at] = True
        hit, _, victim_dirty, state = _lru_lockstep(
            stream % cc_nsets, stream, is_write, cc_nsets, counter_cache.assoc)
        cc_read_miss = ~hit[read_at]
        cc_read_wb = victim_dirty[read_at]
        wb_cc_miss[l2_wb] = ~hit[write_at]
        wb_cc_wb[l2_wb] = victim_dirty[write_at]
        final_cc = _restorable(_lru_contents(state), COUNTER)

    codes = (cc_read_miss * _S_CC_MISS | cc_read_wb * _S_CC_WB
             | l2_wb * _S_L2_WB | wb_cc_miss * _S_WB_CC_MISS
             | wb_cc_wb * _S_WB_CC_WB)
    seen, first = np.unique(codes, return_index=True)
    in_order = seen[np.argsort(first)]
    intern = np.zeros(_S_CODES, dtype=np.int64)
    intern[in_order] = np.arange(len(in_order))

    cc_misses = cc_read_miss.astype(np.int64) + wb_cc_miss
    cc_wbs = cc_read_wb.astype(np.int64) + wb_cc_wb
    wb = l2_wb.astype(np.int64)
    kcounts = np.zeros((m, _N_KINDS), dtype=np.int64)
    kcounts[:, K_DATA] = 1
    kcounts[:, K_COUNTER] = cc_misses
    kcounts[:, K_COUNTER_WB] = cc_wbs
    kcounts[:, K_DATA_WB] = wb
    if mac_reads:
        kcounts[:, K_MAC_FRAC] = 1
        kcounts[:, K_MAC_WB] = wb
    metas = np.zeros((m, _N_META), dtype=np.int64)
    metas[:, _L2WB] = wb
    if sim.uses_counter_cache:
        accesses = 1 + wb
        metas[:, _CA] = accesses
        metas[:, _CCH] = accesses - cc_misses
        metas[:, _CCM] = cc_misses
        metas[:, _CM] = cc_misses
        metas[:, _CCWB] = cc_wbs

    flags = np.zeros(n, dtype=np.int64)
    flags[miss_events] = 1
    node_cache = sim.node_cache
    ticks = np.zeros((n // sample_period, 5), dtype=np.int64)
    ticks[:, 0] = sim.l2.num_lines  # data lines plus free ones, always
    return CompiledTrace(
        n=n,
        miss_flags=flags.tolist(),
        miss_cum=np.cumsum(flags),
        pattern_list=[_pattern(code, mac_reads) for code in in_order.tolist()],
        pat_idx=intern[codes].tolist(),
        cc_stalls=cc_read_miss.astype(np.int64).tolist(),
        iflags=[1 if mac_reads else 0] * m,
        kcounts=kcounts,
        metas=metas,
        ticks=ticks,
        gaps=trace.gaps,
        final_l2=_restorable(stage.contents, DATA),
        final_cc=final_cc,
        final_node=(None if node_cache is None else
                    (((),) * node_cache.num_sets, {})),
    )


def compiled_for(sim, trace, sample_period: int) -> CompiledTrace:
    """The memoized lowering of ``trace`` for ``sim``'s traffic geometry.

    Cached on the trace instance (like :meth:`Trace.decoded`, and
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

    The checks mirror :func:`execute_compiled`'s gate exactly, in the
    same order; the returned string is one of
    :data:`repro.fastpath.FALLBACK_REASONS` and feeds the
    engine-selection telemetry.
    """
    if sanitizer.active() is not None:
        return "sanitizer_armed"
    if sim._deferred_updates:
        # The lowering records synchronous tree-walk traffic; a deferred
        # scheme's pending-walk queue lives in the reference helpers.
        return "deferred_updates"
    node_cache = sim.node_cache
    if (sim.l2.occupied_lines or sim.counter_cache.occupied_lines
            or (node_cache is not None and node_cache.occupied_lines)):
        return "warm_caches"
    if len(trace) == 0:
        return "empty_trace"
    return None


def _run_segment(pres, mflags, prog, i0, i1, mp, now, bf, queue, exposed,
                 full_dur, mem_latency, aes_latency, mac_latency,
                 hit_latency, overlap, uses_cc, serial_decrypt,
                 verify_on_path):
    """Replay events ``[i0, i1)``: the reference clock arithmetic, lean.

    Every float operation matches the reference loop's in kind and
    order. Bus transfers after an event's demand fetch are back-to-back
    (the bus-free timestamp already exceeds the event clock), so their
    start cycles read straight from the running ``bf`` — the same values
    ``MemoryBus.request`` would return, without the branch.
    """
    for pre, mf in zip(pres[i0:i1], mflags[i0:i1]):
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
                # The counter fetch is the first rest transfer; its
                # start cycle is the running bf.
                stall = ((bf + mem_latency) + aes_latency) - data_ready
                extra = stall if stall > 0.0 else 0.0
                exposed += extra
            elif uses_cc:
                exposed += extra
            elif serial_decrypt:
                extra = aes_latency  # decryption serialized after the fetch
                exposed += extra
            for dur in rest:
                queue += bf - now
                bf = bf + dur
            if verify_on_path:
                extra += mac_latency
                if ifetch:
                    extra += mem_latency
            now += hit_latency + ((data_ready - now) + extra) * overlap
        else:
            now += hit_latency
    return mp, now, bf, queue, exposed


def execute_compiled(sim, trace, warmup: float, sample_period: int):
    """Replay ``trace``'s lowering through ``sim``; None when ineligible.

    Eligibility mirrors the fast-path contract: no armed sanitizer (the
    reference helpers carry its per-insert checks), and additionally
    cold caches — the lowering starts from empty contents, and the
    recorded final state is installed on the real caches afterwards so
    warm reuse (and the live line-count gauges) behave exactly as if
    the per-event engine had run. :func:`ineligibility` names the reason
    a run is turned away.
    """
    if ineligibility(sim, trace) is not None:
        return None
    l2 = sim.l2
    counter_cache = sim.counter_cache
    node_cache = sim.node_cache
    n = len(trace)

    artifact = compiled_for(sim, trace, sample_period)
    bus = sim.bus
    mac_bytes = sim._mac_bytes
    cycles_per_block = bus.cycles_per_block
    full_dur = max(1, round(cycles_per_block * 1.0))
    mac_frac_dur = max(1, round(cycles_per_block * (mac_bytes / BLOCK_SIZE)))

    pres = artifact.pres(sim.issue_width)
    prog = artifact.prog(full_dur, mac_frac_dur)
    mflags = artifact.miss_flags
    m = artifact.misses

    warm_events = int(n * warmup)
    degenerate = warm_events >= n
    boundary = n if degenerate else warm_events
    if boundary > 0:
        warm_misses = int(artifact.miss_cum[boundary - 1])
    else:
        warm_misses = 0

    mp, now, bf, queue, exposed = _run_segment(
        pres, mflags, prog, 0, boundary, 0, 0.0, bus._free_at, 0.0, 0.0,
        full_dur, sim.mem_latency, sim.aes_latency, sim.mac_latency,
        sim.l2_hit_latency, sim.overlap, sim.uses_counter_cache,
        sim._serial_decrypt, sim._verify_on_path,
    )
    measured_from = now
    queue = 0.0
    exposed = 0.0
    if not degenerate:
        mp, now, bf, queue, exposed = _run_segment(
            pres, mflags, prog, boundary, n, mp, now, bf, queue, exposed,
            full_dur, sim.mem_latency, sim.aes_latency, sim.mac_latency,
            sim.l2_hit_latency, sim.overlap, sim.uses_counter_cache,
            sim._serial_decrypt, sim._verify_on_path,
        )

    # Settle the order-insensitive statistics for the measured interval.
    if degenerate:
        warm_misses = m
        measured_events = 0
        measured_instructions = 0
    else:
        measured_events = n - warm_events
        measured_instructions = (
            int(artifact.gaps[warm_events:].sum(dtype=np.int64))
            + measured_events
        )
    measured_misses = m - warm_misses
    meta = artifact.metas[warm_misses:].sum(axis=0)
    demand_hits = measured_events - measured_misses
    l2.credit_demand(
        demand_hits + int(meta[_L2H]),
        measured_misses + int(meta[_L2M]),
        int(meta[_L2WB]),
    )
    counter_cache.credit_demand(int(meta[_CCH]), int(meta[_CCM]),
                                int(meta[_CCWB]))
    if node_cache is not None:
        node_cache.credit_demand(int(meta[_TH]), int(meta[_TM]),
                                 int(meta[_TWB]))

    kind_totals = artifact.kcounts[warm_misses:].sum(axis=0)
    by_kind = {}
    for name, codes in _KIND_SETTLEMENT:
        count = int(sum(kind_totals[code] for code in codes))
        if count:
            by_kind[name] = count
    transfers = int(artifact.transfers[warm_misses:].sum())
    busy = float(int(artifact.busy_per_miss(full_dur, mac_frac_dur)
                     [warm_misses:].sum()))
    bus.credit(transfers, busy, queue, by_kind, bf)

    tick0 = warm_events // sample_period
    measured_ticks = artifact.ticks[tick0:]
    if len(measured_ticks):
        occupancy = measured_ticks.sum(axis=0)
        l2.credit_occupancy(
            len(measured_ticks) * l2.num_lines,
            {
                DATA: int(occupancy[0]),
                CODE: int(occupancy[1]),
                COUNTER: int(occupancy[2]),
                MERKLE: int(occupancy[3]),
                MAC: int(occupancy[4]),
            },
        )

    sim.exposed_cycles += exposed
    sim.counter_accesses += int(meta[_CA])
    sim.counter_misses += int(meta[_CM])
    sim.demand_accesses = measured_events
    sim.demand_misses = measured_misses

    # Install the recorded end-of-run cache contents: warm reuse and the
    # live occupancy gauges see exactly what the per-event engine leaves.
    l2.restore_state(*artifact.final_l2)
    counter_cache.restore_state(*artifact.final_cc)
    if node_cache is not None:
        node_cache.restore_state(*artifact.final_node)

    return now, measured_from, measured_instructions
