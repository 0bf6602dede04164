"""Set-associative write-back caches with LRU replacement.

Used for the L1 I/D caches, the unified L2, and the 32KB counter cache
(paper section 6). Lines are tagged with a *content class* so the shared
L2 can report how much of its capacity holds data versus Merkle-tree
nodes — the cache-pollution measurement behind Figure 9.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..core import sanitizer

# Content classes for cache lines.
DATA = "data"
CODE = "code"
COUNTER = "counter"
MERKLE = "merkle"
MAC = "mac"

LINE_CLASSES = (DATA, CODE, COUNTER, MERKLE, MAC)

# Cache-line values ``(dirty, line_class)``, interned: every line of one
# class and dirtiness is the same tuple, ``LINE[line_class][dirty]``, and
# ``DIRTY[line_class]`` is the dirty one. Fills allocate nothing, and
# emptying a cache frees no per-line garbage.
LINE = {cls: ((False, cls), (True, cls)) for cls in LINE_CLASSES}
DIRTY = {cls: lines[True] for cls, lines in LINE.items()}


@dataclass(slots=True)
class Eviction:
    """A victim line pushed out of the cache by an insertion."""

    block: int  # block index (address // block_size)
    dirty: bool
    line_class: str


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/writeback counters plus time-weighted occupancy sums."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    hits_by_class: dict = field(default_factory=dict)
    misses_by_class: dict = field(default_factory=dict)
    # Time-weighted occupancy accounting (advanced by ``tick_occupancy``).
    occupancy_samples: int = 0
    occupancy_by_class: dict = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def occupancy_fraction(self, line_class: str) -> float:
        """Average fraction of cache lines holding ``line_class`` content."""
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_by_class.get(line_class, 0) / self.occupancy_samples


class SetAssociativeCache:
    """A write-back, write-allocate, set-associative cache with true LRU.

    Addresses are byte addresses; internally the cache works on block
    indices. The cache stores only tags and per-line metadata (the
    functional system keeps payloads in its memory model, so the cache is
    purely a presence/recency structure usable by both systems).
    """

    __slots__ = (
        "name",
        "size_bytes",
        "assoc",
        "block_size",
        "num_sets",
        "num_lines",
        "_sets",
        "_pending",
        "_class_lines",
        "_inserts_since_recount",
        "stats",
    )

    def __init__(self, size_bytes: int, assoc: int, block_size: int = 64, name: str = "cache"):
        if size_bytes % (assoc * block_size):
            raise ValueError("cache size must be divisible by assoc * block_size")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_size = block_size
        self.num_sets = size_bytes // (assoc * block_size)
        self.num_lines = self.num_sets * assoc
        # Each set maps block_index -> a LINE value (dirty, line_class);
        # OrderedDict keeps LRU order with the most recently used entry last.
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self._pending = None  # a restore_state snapshot not yet built
        self._class_lines: dict[str, int] = {}
        self._inserts_since_recount = 0
        self.stats = CacheStats()

    # -- internal helpers ---------------------------------------------------

    def _install(self, sets: list) -> list:
        """Make ``sets`` the built contents, ending any pending install."""
        self._sets = sets
        self._pending = None
        self.__class__ = SetAssociativeCache
        return sets

    # -- statistics ---------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the statistics, keeping contents and LRU state warm.

        The sanctioned stats-reset entry point (the OBS001 lint rule
        flags outside code replacing ``cache.stats`` directly): observers
        bind pull-model gauges over ``self.stats`` through this object,
        and those bindings survive because the swap happens here.
        """
        self.stats = CacheStats()

    def credit_demand(self, hits: int, misses: int, writebacks: int = 0) -> None:
        """Credit batched hit/miss/writeback tallies to the statistics.

        The compiled trace replay (:mod:`repro.fastpath.compiled`)
        settles the measured interval's tallies here in one call; routing the
        settlement through the owning cache keeps every ``stats`` write
        inside this module (the OBS001 invariant) and keeps pull-model
        gauges bound over ``self.stats`` truthful at snapshot time.
        """
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.writebacks += writebacks

    def credit_occupancy(self, samples: int, by_class: dict) -> None:
        """Credit batched occupancy samples to the statistics.

        The compiled trace replay (:mod:`repro.fastpath.compiled`)
        records the periodic occupancy ticks during lowering and settles
        the measured interval's totals here in one call — ``samples``
        line-samples plus per-class line counts (with free lines already
        folded into the DATA class, exactly as :meth:`tick_occupancy`
        folds them). Routing through the owning cache preserves the
        OBS001 invariant, as with :meth:`credit_demand`.
        """
        stats = self.stats
        stats.occupancy_samples += samples
        for line_class, count in by_class.items():
            stats.occupancy_by_class[line_class] = (
                stats.occupancy_by_class.get(line_class, 0) + count
            )

    def restore_state(self, sets, class_lines: dict) -> None:
        """Install recorded contents and LRU order, leaving stats alone.

        The sanctioned hand-off from the compiled trace replay: the
        lowering evolves a model of this cache off the clock and records
        where every line ended up; installing that snapshot afterwards
        makes warm reuse and the live ``lines.*`` gauges behave exactly
        as if the caches had been walked live. ``sets`` is a sequence with
        one entry per set, each an iterable of ``(block, (dirty,
        line_class))`` items, LRU first, or a mapping of them — whatever
        ``OrderedDict(entry)`` rebuilds.

        The class tallies are copied now, and everything that reads only
        them (``occupied_lines``, ``lines_of_class``, ``tick_occupancy``)
        works at once. The sets become a *pending install*: the ``_sets``
        slot is left unset and the instance becomes a
        :class:`_PendingInstall` until the first read of ``_sets`` builds
        it (copied, never shared) and turns it back. That read may come
        from any operation, the sanitizer's recount, a pickle, or a
        direct attribute read, and none of their code changes. A cold sweep
        that throws the machine away, or :meth:`clear` before the next
        run, never builds it, so ``sets`` must stay unchanged afterwards.
        A second install replaces a pending one.
        """
        if len(sets) != self.num_sets:
            raise ValueError(
                f"snapshot has {len(sets)} sets, cache has {self.num_sets}"
            )
        self._class_lines = dict(class_lines)
        if self._pending is None:
            del self._sets
            self.__class__ = _PendingInstall
        self._pending = sets

    # -- core operations ----------------------------------------------------

    def lookup(self, address: int, write: bool = False) -> bool:
        """Access the block containing ``address``. Returns hit/miss.

        On a hit the line becomes most-recently-used and, for writes,
        dirty. On a miss the cache is *not* modified — callers decide
        whether to ``insert`` (modelling fill policy explicitly).
        """
        block = address // self.block_size
        cache_set = self._sets[block % self.num_sets]
        entry = cache_set.get(block)
        if entry is None:
            self.stats.misses += 1
            return False
        cache_set.move_to_end(block)
        if write and not entry[0]:
            cache_set[block] = DIRTY[entry[1]]
        self.stats.hits += 1
        return True

    def insert(self, address: int, line_class: str = DATA, dirty: bool = False) -> Eviction | None:
        """Fill the block containing ``address``, evicting LRU if needed.

        Returns the eviction (if a victim was displaced) so the caller can
        model the writeback. ``line_class`` is one of :data:`LINE_CLASSES`.
        """
        block = address // self.block_size
        cache_set = self._sets[block % self.num_sets]
        tallies = self._class_lines
        entry = cache_set.get(block)
        if entry is not None:
            # Refill of a present line: merge dirty bit, refresh recency.
            cache_set[block] = LINE[line_class][entry[0] or dirty]
            cache_set.move_to_end(block)
            if entry[1] != line_class:
                tallies[entry[1]] = tallies.get(entry[1], 1) - 1
                tallies[line_class] = tallies.get(line_class, 0) + 1
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            vblock, (vdirty, vclass) = cache_set.popitem(last=False)
            tallies[vclass] = tallies.get(vclass, 1) - 1
            if vdirty:
                self.stats.writebacks += 1
            victim = Eviction(vblock, vdirty, vclass)
        cache_set[block] = LINE[line_class][dirty]
        tallies[line_class] = tallies.get(line_class, 0) + 1
        # The armed-sanitizer probe: one module-global read per insert.
        if sanitizer._active is not None:
            self._sanitize_insert(cache_set)
        return victim

    def _sanitize_insert(self, cache_set: OrderedDict) -> None:
        """Armed-only bookkeeping checks after a fill (see repro.core.sanitizer).

        The set-size check runs on every insert; the full class-tally
        recount (which Figure 9's occupancy fractions depend on) only
        every Nth insert — it walks the whole cache.
        """
        if not sanitizer.enabled("cache_inclusion"):
            return
        sanitizer.check(
            len(cache_set) <= self.assoc,
            f"{self.name}: set holds {len(cache_set)} lines, associativity is {self.assoc}",
        )
        self._inserts_since_recount += 1
        if self._inserts_since_recount >= max(1, sanitizer.spot_interval()):
            self._inserts_since_recount = 0
            recount: dict[str, int] = {}
            for other_set in self._sets:
                for _, line_class in other_set.values():
                    recount[line_class] = recount.get(line_class, 0) + 1
            tallies = {k: v for k, v in self._class_lines.items() if v}
            sanitizer.check(
                recount == tallies,
                f"{self.name}: class tallies {tallies} disagree with recount {recount}",
            )

    def contains(self, address: int) -> bool:
        """Presence test without touching recency or stats."""
        block = address // self.block_size
        return block in self._sets[block % self.num_sets]

    def invalidate(self, address: int) -> bool:
        """Drop the block containing ``address`` (no writeback). True if present."""
        block = address // self.block_size
        cache_set = self._sets[block % self.num_sets]
        entry = cache_set.pop(block, None)
        if entry is None:
            return False
        self._class_lines[entry[1]] = self._class_lines.get(entry[1], 1) - 1
        return True

    def invalidate_range(self, start_address: int, length: int) -> int:
        """Invalidate every block overlapping [start, start+length). Returns count.

        Used when a page is swapped out and its Merkle subtree must be
        forced out of on-chip caches (paper section 5.1).
        """
        first = start_address // self.block_size
        last = (start_address + length - 1) // self.block_size
        dropped = 0
        for block in range(first, last + 1):
            if self.invalidate(block * self.block_size):
                dropped += 1
        return dropped

    def flush(self) -> list[Eviction]:
        """Empty the cache, returning dirty victims in no particular order.

        Dirty victims count toward ``stats.writebacks``, exactly as LRU
        evictions on the ``insert`` path do — a flush pushes the same
        lines off-chip.
        """
        dirty = []
        for cache_set in self._sets:
            for block, (is_dirty, line_class) in cache_set.items():
                if is_dirty:
                    dirty.append(Eviction(block=block, dirty=True, line_class=line_class))
            cache_set.clear()
        self.stats.writebacks += len(dirty)
        self._class_lines.clear()
        return dirty

    def clear(self) -> None:
        """Return the cache to its just-constructed (cold) state.

        Unlike :meth:`flush`, this models no memory traffic: contents,
        LRU order, class tallies, and statistics all vanish without a
        single writeback being charged. It exists for sanctioned warm
        machine reuse (:meth:`repro.sim.simulator.TimingSimulator.reset_cold`),
        where a pooled simulator must be indistinguishable from a fresh
        one — byte-identical results are the contract, so nothing the
        timing model reads may survive.
        """
        if self._pending is None:
            for cache_set in self._sets:
                cache_set.clear()
        else:  # drop the pending install unbuilt
            self._install([OrderedDict() for _ in range(self.num_sets)])
        self._class_lines.clear()
        self._inserts_since_recount = 0
        self.stats = CacheStats()

    # -- occupancy accounting -------------------------------------------------

    def lines_of_class(self, line_class: str) -> int:
        """Lines currently holding content of ``line_class``."""
        return self._class_lines.get(line_class, 0)

    @property
    def occupied_lines(self) -> int:
        return sum(self._class_lines.values())

    def tick_occupancy(self) -> None:
        """Record one occupancy sample (fractions of total capacity).

        Empty (never-filled) lines are counted toward the DATA class, as
        in the paper's measurement where "fraction of L2 occupied by data"
        means everything that is not a Merkle-tree node.
        """
        stats = self.stats
        stats.occupancy_samples += self.num_lines
        for line_class, count in self._class_lines.items():
            stats.occupancy_by_class[line_class] = (
                stats.occupancy_by_class.get(line_class, 0) + count
            )
        free = self.num_lines - self.occupied_lines
        if free:
            stats.occupancy_by_class[DATA] = stats.occupancy_by_class.get(DATA, 0) + free


class _PendingInstall(SetAssociativeCache):
    """A cache whose sets are a pending install (see ``restore_state``).

    The hook that builds them lives on this subclass so that
    :class:`SetAssociativeCache` defines no ``__getattr__``: one there
    would slow every attribute read of every cache, hot paths included.
    """

    __slots__ = ()

    def __getattr__(self, name):
        # Reached only when normal lookup fails: the unset ``_sets`` slot.
        if name != "_sets":
            raise AttributeError(name)
        return self._install([OrderedDict(items) for items in self._pending])

    def __reduce_ex__(self, protocol):
        self._sets  # build: the cache pickles as a plain, built one
        return self.__reduce_ex__(protocol)
