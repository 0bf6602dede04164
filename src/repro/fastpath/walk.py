"""The per-miss walk: the one home of the section-6 traffic rules.

The counter-cache access that hides or exposes AES latency, the Merkle
walk that stops at the first cached node, the data MACs, the
dirty-victim writeback chains and a deferred-update scheme's queue of
pending walks are written here once, with the demand loop that drives
them. The lowering
(:func:`repro.fastpath.compiled.lower_sequential`) runs that loop off
the clock on model caches, or live on the simulator's own; it counts no
cache statistics per access, since a miss key's deltas follow from its
tokens (settled via :func:`credit`).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from types import SimpleNamespace

import numpy as np

from ..core import sanitizer
from ..mem.cache import CODE, COUNTER, DATA, DIRTY, LINE, MAC, MERKLE
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
# The bus's name for each kind's transfers.
KIND_NAMES = ("data", "counter", "merkle", "mac", "mac", "data_wb",
              "counter_wb", "merkle_wb", "mac_wb")

# Columns of the per-key statistics-delta matrix (metadata traffic
# only; the demand hit/miss itself is counted by the engines).
_L2H, _L2M, _L2WB = 0, 1, 2
_CCH, _CCM, _CCWB = 3, 4, 5
_TH, _TM, _TWB = 6, 7, 8
_CA, _CM = 9, 10
_TD, _TDR, _TC = 11, 12, 13  # deferred walks, drains, coalesced walks
_N_META = 14

# A miss's *key* is the tuple of tokens its traffic produced, in bus
# order: the transfer kinds above (the leading demand fetch left out)
# plus markers that move no data but count in the statistics. A dirty
# victim of a dedicated node cache gets its own token, so its writeback
# (a K_MERKLE_WB transfer) counts toward the node cache, not the L2.
_T_NODE_HIT = 9    # a tree walk stopped at a cached node
_T_MAC_HIT = 10    # a cached data MAC hit in the L2
_T_CC_HIT = 11     # a counter-cache hit
_T_NODE_WB = 12    # a dirty node-cache victim written back
_T_IFETCH = 13     # the demand miss fetched integrity metadata
_T_DEFER = 14      # a dirty counter block's tree walk was queued
_T_DRAIN = 15      # the deferred queue drained
_T_COALESCED = 16  # a drained walk merged into an earlier one
_N_TOKENS = 17

# The transfer kind of each token (None for markers).
_TOKEN_KIND = (tuple(range(_N_KINDS)) + (None, None, None, K_MERKLE_WB)
               + (None,) * 4)


def _token_matrices():
    """Token -> per-kind transfer counts, and token -> statistics deltas
    for a tree kept in the L2 or in a dedicated node cache."""
    kinds = np.zeros((_N_TOKENS, _N_KINDS), dtype=np.int64)
    for token, kind in enumerate(_TOKEN_KIND):
        if kind is not None:
            kinds[token, kind] = 1
    metas = {}
    for tree_is_l2 in (True, False):
        meta = np.zeros((_N_TOKENS, _N_META), dtype=np.int64)
        meta[K_COUNTER, [_CCM, _CM, _CA]] = 1
        meta[_T_CC_HIT, [_CCH, _CA]] = 1
        meta[K_COUNTER_WB, _CCWB] = 1
        meta[K_MERKLE, _L2M if tree_is_l2 else _TM] = 1
        meta[_T_NODE_HIT, _L2H if tree_is_l2 else _TH] = 1
        meta[K_MAC, _L2M] = 1
        meta[_T_MAC_HIT, _L2H] = 1
        meta[[K_DATA_WB, K_MERKLE_WB], _L2WB] = 1
        meta[_T_NODE_WB, _TWB] = 1
        meta[_T_DEFER, _TD] = meta[_T_DRAIN, _TDR] = 1
        meta[_T_COALESCED, _TC] = 1
        metas[tree_is_l2] = meta
    return kinds, metas


_TOKEN_KCOUNTS, _TOKEN_METAS = _token_matrices()


def token_counts(keys: list) -> np.ndarray:
    """How often each token occurs in each key: ``(len(keys), _N_TOKENS)``."""
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    tokens = np.fromiter(chain.from_iterable(keys), dtype=np.int64,
                         count=int(lengths.sum()))
    owner = np.repeat(np.arange(len(keys)), lengths)
    return np.bincount(owner * _N_TOKENS + tokens,
                       minlength=len(keys) * _N_TOKENS
                       ).reshape(len(keys), _N_TOKENS)


def credit(sim, meta, demand_hits: int = 0, demand_misses: int = 0) -> None:
    """Credit a statistics-delta row (plus L2 demand tallies) to ``sim``'s
    caches, through their batch-credit API, and counter and deferred-tree
    tallies."""
    sim.l2.credit_demand(demand_hits + int(meta[_L2H]),
                         demand_misses + int(meta[_L2M]), int(meta[_L2WB]))
    sim.counter_cache.credit_demand(int(meta[_CCH]), int(meta[_CCM]),
                                    int(meta[_CCWB]))
    if sim.node_cache is not None:
        sim.node_cache.credit_demand(int(meta[_TH]), int(meta[_TM]),
                                     int(meta[_TWB]))
    sim.counter_accesses += int(meta[_CA])
    sim.counter_misses += int(meta[_CM])
    sim.tree_deferred += int(meta[_TD])
    sim.tree_drains += int(meta[_TDR])
    sim.tree_coalesced += int(meta[_TC])


def counter_block_of(sim):
    """``sim``'s counter-block function: a byte address (an int, or an
    int64 array) -> the number of the counter block covering it."""
    ctr_block0 = sim._ctr_base // BLOCK_SIZE
    cb_span = sim._cb_span
    return lambda addr: ctr_block0 + addr // cb_span


def miss_walk(sim, push, live: bool = False, emit=None) -> SimpleNamespace:
    """The per-miss walk for ``sim``'s traffic geometry, pushing tokens.

    Returns the demand loop ``events(addresses, writes, lo,
    sample_period, ev, items)``, which the lowering runs, and the
    per-miss pieces it drives: ``counter_access(block, write)`` (a miss's
    demand counter read, or a dirty victim's counter bump),
    ``integrity(block)`` (a demand miss's tree walk or data MAC) and
    ``writeback(block, line_class)`` (a dirty L2 victim's chain); then
    ``drain()``, ``close()``, the address functions it uses
    (``counter_block(addr)``, on ints or arrays, and
    ``mac_block(block)``), and the sets and tallies it runs on. ``live``
    runs it on ``sim``'s caches (reading ``_sets`` builds a pending
    install) with the deferred queue on ``sim._pending_walks`` and,
    armed, the sanitizer's per-fill checks; otherwise it runs on fresh
    sets and walks the tree at once. ``emit(event, **fields)`` receives
    ``counter_miss`` before its fetch's token and ``merkle_fetch`` after.

    ``events`` walks the events at byte ``addresses`` (an int64 array)
    with ``writes`` (bools), the first numbered ``lo`` in its trace. It
    probes the L2 and, per miss, clears ``ev`` (the list ``push``
    appends to), runs the counter read, the integrity traffic and the L2
    fill, and interns ``tuple(ev)`` as the miss's key. The common path
    is inline: a demand counter-cache hit, a bare data MAC (used,
    uncached, no tree over data) and the fill into the set the probe
    found; the L2 is checked for a refill only when a counter miss or
    integrity traffic ran. After every event whose number is a multiple
    of ``sample_period`` it samples the L2's occupancy by class. With
    ``items`` (the list the recording ``push`` and ``emit`` also append
    to) it records each miss as ``(address, write, items)``, ``None``
    marking the decrypt-exposed point. Returns ``(miss_events, key_ids,
    key_idx, ticks, records)``.
    """
    l2 = sim.l2
    counter_cache = sim.counter_cache
    node_cache = sim.node_cache

    # Block numbers throughout: ``(base + k * bs) // bs == base // bs + k``,
    # and MachineConfig pins every cache line to BLOCK_SIZE.
    bs = BLOCK_SIZE
    uses_cc = sim.uses_counter_cache
    walks_tree = sim._walks_tree
    tree_covers_data = sim._tree_covers_data
    uses_data_macs = sim._uses_data_macs
    cache_data_macs = sim._cache_data_macs
    level_blocks = tuple(base // bs for base in sim._walk_bases)
    arity = sim._arity
    leaf_of_block = (-sim._covered_start) // bs  # block -> tree leaf index
    mac_block0 = sim._mac_base // bs
    mac_bytes = sim._mac_bytes
    counter_block = counter_block_of(sim) if uses_cc else None
    deferred = live and sim._deferred_updates
    batch = sim._update_batch
    coalesce = sim._update_coalesce
    sanitize = live and sanitizer._active is not None

    def mac_block(data_block):
        return mac_block0 + data_block * mac_bytes // bs

    def state(cache):
        if live:
            return cache._sets, cache._class_lines
        return [OrderedDict() for _ in range(cache.num_sets)], {}

    tree_cache = node_cache if node_cache is not None else l2
    l2_sets, l2_classes = state(l2)
    cc_sets, cc_classes = state(counter_cache)
    t_sets, t_classes = (state(node_cache) if node_cache is not None
                         else (l2_sets, l2_classes))
    tree_is_l2 = node_cache is None
    l2_nsets, l2_assoc = l2.num_sets, l2.assoc
    cc_nsets, cc_assoc = counter_cache.num_sets, counter_cache.assoc
    t_nsets, t_assoc = tree_cache.num_sets, tree_cache.assoc
    data_lines = LINE[DATA]
    counter_lines = LINE[COUNTER]
    merkle_lines = LINE[MERKLE]
    mac_lines = LINE[MAC]

    def install(cache, cache_set, assoc, classes, block, line):
        # Fill ``block`` (absent) with ``line``, evicting the LRU line of
        # a full set; returns a dirty victim's (block, class), else None.
        victim = None
        if len(cache_set) >= assoc:
            vblock, (vdirty, vclass) = cache_set.popitem(last=False)
            classes[vclass] -= 1
            if vdirty:
                victim = vblock, vclass
        cache_set[block] = line
        classes[line[1]] = classes.get(line[1], 0) + 1
        if sanitize:
            cache._sanitize_insert(cache_set)
        return victim

    def tree_walk(index, make_dirty):
        # ``index`` is the covered block's leaf index; returns the number
        # of nodes fetched before the first cached one (or the root).
        fetched = 0
        line = merkle_lines[make_dirty]
        for level_block in level_blocks:
            index //= arity
            block = level_block + index
            cache_set = t_sets[block % t_nsets]
            entry = cache_set.get(block)
            if entry is not None:
                cache_set.move_to_end(block)
                if make_dirty and not entry[0]:
                    cache_set[block] = DIRTY[entry[1]]
                push(_T_NODE_HIT)
                return fetched
            push(K_MERKLE)
            if emit is not None:
                emit("merkle_fetch", level=fetched, addr=block * bs,
                     dirty=make_dirty)
            fetched += 1
            victim = install(tree_cache, cache_set, t_assoc, t_classes,
                             block, line)
            if victim is not None:
                if tree_is_l2:
                    writeback(*victim)
                else:
                    push(_T_NODE_WB)
        # Fell off the top: the root register verifies/absorbs the update.
        return fetched

    def counter_access(block, write):
        # A counter-cache hit lets pad generation overlap the data fetch;
        # a miss fetches the counter block (and, under a tree scheme,
        # verifies it) first.
        cache_set = cc_sets[block % cc_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = DIRTY[entry[1]]
            push(_T_CC_HIT)
            return
        if emit is not None:
            emit("counter_miss", addr=block * bs, write=write)
        push(K_COUNTER)
        victim = install(counter_cache, cache_set, cc_assoc, cc_classes,
                         block, counter_lines[write])
        if victim is not None:
            push(K_COUNTER_WB)
            if deferred:
                defer(victim[0])
            elif walks_tree:
                tree_walk(victim[0] + leaf_of_block, True)
        if walks_tree:
            tree_walk(block + leaf_of_block, False)

    def mac_traffic(data_block, write):
        # Per-block MAC fetch/update; returns the number of fetches.
        if not cache_data_macs:
            # Uncached MACs: every miss fetches, every writeback read-
            # modify-writes, and only the MAC itself crosses the bus.
            push(K_MAC_WB if write else K_MAC_FRAC)
            return 0 if write else 1
        block = mac_block(data_block)
        cache_set = l2_sets[block % l2_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = DIRTY[entry[1]]
            push(_T_MAC_HIT)
            return 0
        push(K_MAC)
        victim = install(l2, cache_set, l2_assoc, l2_classes, block,
                         mac_lines[write])
        if victim is not None:
            writeback(*victim)
        return 1

    def writeback(vblock, vclass):
        # A dirty L2 victim. Data leaving the chip is encrypted (its
        # counter bumps) and re-MACed.
        if vclass == MERKLE or vclass == MAC:
            push(K_MERKLE_WB)
            return
        push(K_DATA_WB)
        if uses_cc:
            counter_access(counter_block(vblock * bs), True)
        if tree_covers_data:
            tree_walk(vblock + leaf_of_block, True)
        elif uses_data_macs:
            mac_traffic(vblock, True)

    def integrity(block):
        # A demand miss's integrity traffic: the tree walk over data, or
        # the data MAC. Marks the miss when it fetched metadata.
        if tree_covers_data:
            if tree_walk(block + leaf_of_block, False):
                push(_T_IFETCH)
        elif uses_data_macs:
            if mac_traffic(block, False):
                push(_T_IFETCH)

    def defer(block):
        # Queue a dirty counter block's walk instead of performing it.
        sim._pending_walks.append(block)
        push(_T_DEFER)
        if len(sim._pending_walks) >= batch:
            drain()

    def drain():
        # Off the critical path: costs bandwidth and cache churn, never
        # stall. Coalescing merges queued walks to one counter block.
        pending = sim._pending_walks
        if not pending:
            return
        sim._pending_walks = []
        push(_T_DRAIN)
        seen = set()
        for block in pending:
            if coalesce and block in seen:
                push(_T_COALESCED)
                continue
            seen.add(block)
            tree_walk(block + leaf_of_block, True)

    # The demand read's integrity traffic when it is a bare data MAC (used,
    # uncached, no tree over data): two tokens and no cache access.
    bare_macs = uses_data_macs and not cache_data_macs and not tree_covers_data
    # Any other integrity traffic goes through ``integrity`` and may
    # touch the L2.
    other_integrity = tree_covers_data or (uses_data_macs and cache_data_macs)

    def events(addresses, writes, lo, sample_period, ev, items=None):
        # The demand loop (see the docstring): a miss's common path is
        # written inline, the rest goes through the rules above.
        blocks_np = addresses // bs
        blocks = blocks_np.tolist()
        set_index = (blocks_np % l2_nsets).tolist()
        cblocks = counter_block(addresses).tolist() if uses_cc else None
        hi = lo + len(blocks)
        # Split at every multiple of the sample period, after which a tick.
        cuts = sorted({lo, hi, *range(lo - lo % sample_period + sample_period,
                                      hi, sample_period)})
        record = items is not None
        miss_events: list = []
        key_idx: list = []
        key_ids: dict = {}
        ticks: list = []
        records: list | None = [] if record else None
        # The hottest closure variables, as locals.
        push_, sets, classes, ccs = push, l2_sets, l2_classes, cc_sets
        sanitize_insert = l2._sanitize_insert if sanitize else None
        for start, stop in zip(cuts, cuts[1:]):
            for i in range(start - lo, stop - lo):
                block = blocks[i]
                cache_set = sets[set_index[i]]
                entry = cache_set.get(block)
                write = writes[i]
                if entry is not None:
                    cache_set.move_to_end(block)
                    if write and not entry[0]:
                        cache_set[block] = DIRTY[entry[1]]
                    continue
                miss_events.append(i)
                ev.clear()
                if record:
                    items.clear()
                touched = other_integrity
                if uses_cc:
                    # A demand read never dirties its counter block.
                    cblock = cblocks[i]
                    counter_set = ccs[cblock % cc_nsets]
                    if cblock in counter_set:
                        counter_set.move_to_end(cblock)
                        push_(_T_CC_HIT)
                    else:
                        counter_access(cblock, False)
                        touched = True
                if record:
                    items.append(None)  # the decrypt-exposed point
                if bare_macs:
                    push_(K_MAC_FRAC)
                    push_(_T_IFETCH)
                elif other_integrity:
                    integrity(block)
                # The L2 fill. Only a counter miss or integrity traffic can
                # have touched the L2 since the probe missed.
                if touched and block in cache_set:
                    # Refill of a present line (a metadata insert raced
                    # the fill).
                    entry = cache_set[block]
                    cache_set[block] = data_lines[entry[0] or write]
                    cache_set.move_to_end(block)
                    classes[entry[1]] -= 1
                    classes[DATA] = classes.get(DATA, 0) + 1
                elif len(cache_set) >= l2_assoc:
                    vblock, (vdirty, vclass) = cache_set.popitem(last=False)
                    cache_set[block] = data_lines[write]
                    if vclass != DATA:
                        classes[vclass] -= 1
                        classes[DATA] = classes.get(DATA, 0) + 1
                    if sanitize_insert is not None:
                        sanitize_insert(cache_set)
                    if vdirty:
                        writeback(vblock, vclass)
                else:
                    cache_set[block] = data_lines[write]
                    classes[DATA] = classes.get(DATA, 0) + 1
                    if sanitize_insert is not None:
                        sanitize_insert(cache_set)
                key = tuple(ev)
                idx = key_ids.get(key)
                if idx is None:
                    idx = key_ids[key] = len(key_ids)
                key_idx.append(idx)
                if record:
                    records.append((block * bs, write, items.copy()))
            if stop % sample_period == 0:
                free = l2.num_lines - sum(classes.values())
                ticks.append((
                    classes.get(DATA, 0) + free,
                    classes.get(CODE, 0),
                    classes.get(COUNTER, 0),
                    classes.get(MERKLE, 0),
                    classes.get(MAC, 0),
                ))
        return miss_events, key_ids, key_idx, ticks, records

    def close():
        # Every cycle among these closures runs through ``writeback``:
        # unbound, a finished walk is freed without the cycle collector.
        nonlocal writeback
        writeback = None

    return SimpleNamespace(
        counter_access=counter_access, integrity=integrity,
        writeback=writeback, events=events, drain=drain, close=close,
        counter_block=counter_block, mac_block=mac_block,
        l2_sets=l2_sets, l2_classes=l2_classes, cc_sets=cc_sets,
        cc_classes=cc_classes, tree_sets=t_sets, tree_classes=t_classes,
        tree_is_l2=tree_is_l2)
