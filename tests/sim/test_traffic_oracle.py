"""The timing model's traffic against a by-definition oracle.

Every run (the memoized replay, a live run, and the clock oracle of
``tests/sim/clock_oracle.py``) walks misses with one per-miss walk, so
comparing them with each other cannot catch a slip in the walk itself.
The oracle here is the independent side: section 6's traffic rules
written out from their definitions over
:meth:`SetAssociativeCache.lookup`/``insert`` (which keep their own
statistics) and a bus that only counts transfers, with no clock. Node
addresses come from the functional tree's :meth:`TreeGeometry.walk`,
scheme behaviour from the registered descriptors. The property, one per
registry-valid scheme pair: on generated traces, under every cache
shape, a cold run and a warm second run report exactly the oracle's
transfers per kind, cache hits, misses and writebacks, counter accesses
and misses, deferred-tree bookkeeping and final line counts, whichever
of the three runs them.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro import fastpath
from repro.core.machine import plan_layout
from repro.mem.cache import COUNTER, DATA, LINE_CLASSES, MAC, MERKLE, SetAssociativeCache
from repro.mem.layout import BLOCK_SIZE
from repro.schemes import encryption_scheme, integrity_scheme
from repro.sim.simulator import TimingSimulator
from tests.sim import clock_oracle
from tests.sim.test_compiled import (
    _CACHES, _DIFFERENTIAL, each_pair, pair_config, small_traces,
)


class TrafficOracle:
    """Off-chip transfers and cache statistics of one machine, by definition."""

    def __init__(self, config, sim):
        layout, self.geometry = plan_layout(config)
        enc = encryption_scheme(config.encryption)
        integ = integrity_scheme(config.integrity)
        self.span = enc.counter_block_span if enc.uses_counter_cache else None
        self.counter_base = layout.counter_base
        self.mac_base = layout.mac_base
        self.mac_bytes = config.mac_bytes
        self.walks_tree = integ.uses_tree
        self.tree_covers_data = integ.tree_covers_data
        self.uses_data_macs = integ.uses_data_macs
        self.cache_macs = config.caches_data_macs
        policy = integ.update_policy
        self.deferred = policy.deferred and integ.uses_tree
        self.batch = policy.batch
        self.coalesce = policy.coalesce
        # Cache shapes are the simulator's (sizing is not under test).
        self.l2 = SetAssociativeCache(sim.l2.size_bytes, sim.l2.assoc, BLOCK_SIZE)
        self.cc = SetAssociativeCache(sim.counter_cache.size_bytes,
                                      sim.counter_cache.assoc, BLOCK_SIZE)
        self.nodes = (None if sim.node_cache is None else SetAssociativeCache(
            sim.node_cache.size_bytes, sim.node_cache.assoc, BLOCK_SIZE))
        self.pending = []  # counter-block addresses owing a dirty tree walk
        self.reset()

    def reset(self):
        """Zero the statistics; caches and pending walks stay."""
        self.transfers = {}
        for cache in (self.l2, self.cc, self.nodes):
            if cache is not None:
                cache.reset_stats()
        self.demand_accesses = self.demand_misses = 0
        self.counter_accesses = self.counter_misses = 0
        self.deferred_walks = self.drains = self.coalesced = 0

    def transfer(self, kind):
        self.transfers[kind] = self.transfers.get(kind, 0) + 1

    def run(self, trace, warmup):
        self.reset()
        n = len(trace)
        warm = int(n * warmup)
        for i, (op, addr) in enumerate(zip(trace.ops.tolist(), trace.addresses.tolist())):
            if i == warm:
                self.reset()
            self.access(addr, op == 1)
        if n and warm >= n:
            self.reset()
        if self.deferred:
            self.drain()

    def access(self, addr, write):
        self.demand_accesses += 1
        if self.l2.lookup(addr, write):
            return
        self.demand_misses += 1
        self.transfer("data")
        if self.span is not None:
            self.counter(addr, False)
        if self.tree_covers_data:
            self.tree_walk(addr, False)
        elif self.uses_data_macs:
            self.mac(addr, False)
        self.evicted(self.l2.insert(addr, DATA, write))

    def counter(self, addr, write):
        """Counter-mode schemes read (or bump) the data's counter block."""
        cb_addr = self.counter_base + addr // self.span * BLOCK_SIZE
        self.counter_accesses += 1
        if self.cc.lookup(cb_addr, write):
            return
        self.counter_misses += 1
        self.transfer("counter")
        victim = self.cc.insert(cb_addr, COUNTER, write)
        if victim is not None and victim.dirty:
            self.transfer("counter_wb")
            if self.walks_tree:
                if self.deferred:
                    self.defer(victim.block * BLOCK_SIZE)
                else:
                    self.tree_walk(victim.block * BLOCK_SIZE, True)
        if self.walks_tree:
            self.tree_walk(cb_addr, False)

    def tree_walk(self, covered_addr, dirty):
        """Fetch nodes leaf to top until one is already on chip."""
        cache = self.nodes if self.nodes is not None else self.l2
        for ref in self.geometry.walk(covered_addr):
            if cache.lookup(ref.address, dirty):
                return
            self.transfer("merkle")
            victim = cache.insert(ref.address, MERKLE, dirty)
            if self.nodes is None:
                self.evicted(victim)
            elif victim is not None and victim.dirty:
                self.transfer("merkle_wb")

    def mac(self, addr, write):
        """BMT-style per-block data MACs: cached in the L2 or moved bare."""
        if not self.cache_macs:
            self.transfer("mac_wb" if write else "mac")
            return
        mac_addr = self.mac_base + addr // BLOCK_SIZE * self.mac_bytes // BLOCK_SIZE * BLOCK_SIZE
        if self.l2.lookup(mac_addr, write):
            return
        self.transfer("mac")
        self.evicted(self.l2.insert(mac_addr, MAC, write))

    def evicted(self, victim):
        """An L2 victim; a dirty one leaves the chip."""
        if victim is None or not victim.dirty:
            return
        addr = victim.block * BLOCK_SIZE
        if victim.line_class in (MERKLE, MAC):
            self.transfer("merkle_wb")
            return
        self.transfer("data_wb")
        if self.span is not None:
            self.counter(addr, True)
        if self.tree_covers_data:
            self.tree_walk(addr, True)
        elif self.uses_data_macs:
            self.mac(addr, True)

    def defer(self, cb_addr):
        self.pending.append(cb_addr)
        self.deferred_walks += 1
        if len(self.pending) >= self.batch:
            self.drain()

    def drain(self):
        if not self.pending:
            return
        pending, self.pending = self.pending, []
        self.drains += 1
        seen = set()
        for cb_addr in pending:
            if self.coalesce and cb_addr in seen:
                self.coalesced += 1
                continue
            seen.add(cb_addr)
            self.tree_walk(cb_addr, True)

    def snapshot(self) -> dict:
        """The oracle's numbers under the simulator's metric names."""
        snap = {
            "bus.transfers_by_kind": self.transfers,
            "sim.demand_accesses": self.demand_accesses,
            "sim.demand_misses": self.demand_misses,
            "sim.counter_accesses": self.counter_accesses,
            "sim.counter_misses": self.counter_misses,
        }
        if self.deferred:
            snap.update({
                "sim.tree_deferred_walks": self.deferred_walks,
                "sim.tree_drains": self.drains,
                "sim.tree_coalesced_walks": self.coalesced,
                "sim.tree_pending_walks": len(self.pending),
            })
        for prefix, cache in (("l2", self.l2), ("counter_cache", self.cc),
                              ("node_cache", self.nodes)):
            if cache is None:
                continue
            for stat in ("hits", "misses", "writebacks"):
                snap[f"{prefix}.{stat}"] = getattr(cache.stats, stat)
            for cls in LINE_CLASSES:
                snap[f"{prefix}.lines.{cls}"] = cache.lines_of_class(cls)
        return snap


def run_with(engine: str, sim, trace, warmup):
    """One run of ``sim``: gate on, gate off, or the clock oracle."""
    if engine == "oracle":
        return clock_oracle.run(sim, trace, warmup=warmup, collect_metrics=True)
    with fastpath.forced(engine == "on"):
        return sim.run(trace, warmup=warmup, collect_metrics=True)


class TestTrafficOracle:
    @each_pair
    @_DIFFERENTIAL
    @given(trace=small_traces(), caches=st.sampled_from(sorted(_CACHES)),
           cached_macs=st.booleans(), warmup=st.sampled_from([0.0, 0.3, 1.0]),
           engine=st.sampled_from(["on", "off", "oracle"]))
    def test_simulator_traffic_is_the_oracles(self, pair, trace, caches,
                                               cached_macs, warmup, engine):
        """A cold run, then a warm second run on the same machines."""
        config = pair_config(pair, caches, cached_macs)
        sim = TimingSimulator(config)
        oracle = TrafficOracle(config, sim)
        for _ in range(2):
            metrics = run_with(engine, sim, trace, warmup).metrics
            oracle.run(trace, warmup)
            want = oracle.snapshot()
            got = {name: metrics[name] for name in want}
            assert got == want
