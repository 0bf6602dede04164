"""The replay: byte-identical to the clock oracle, memoized or live.

Every run is a walk, then a replay through one clock: the memoized
replay of a cold lowering (which installs its final cache contents
afterwards), or a live run that walks the simulator's own caches. Both
must reproduce every field of the clock oracle's :class:`SimResult`
(``tests/sim/clock_oracle.py``: the section-6 rules one event at a time,
each transfer timed by ``MemoryBus.request``) — cycles to the last bit
(float arithmetic is replayed in the oracle's operation order, not
re-associated), statistics, metrics snapshot, and the warm cache state
left behind. These tests pin that contract across the registered scheme
cross-product on a randomized trace, at the warmup edge cases, through
warm reuse (where the memoized replay bows out to a live run), and under
the armed sanitizer; plus the security half — tampering still raises
with the fast gate forced on. The staged (set-parallel) lowering is
pinned slot for slot against the sequential one it replaces for schemes
whose L2 holds only demand data. The key-indexed artifact's settlement
is pinned against a per-miss reconstruction. Differential properties,
one per registry pair, cross both paths with the oracle on generated
traces: a warm second run, ``reset_cold`` reuse, an armed sanitizer,
and a traced run whose events and samples must be the oracle's.
"""

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath, schemes
from repro.api import preset_names
from repro.core import IntegrityError, sanitizer
from repro.core.config import PRESET_NAMES, CacheConfig, MachineConfig
from repro.core.errors import ConfigurationError
from repro.fastpath import compiled, walk
from repro.mem.layout import BLOCK_SIZE
from repro.sim.simulator import _OCCUPANCY_SAMPLE_PERIOD, TimingSimulator
from repro.sim.trace import Trace
from repro.workloads.spec2k import spec_trace
from repro.workloads.synthetic import WorkloadProfile, generate_trace
from tests.conftest import make_machine
from tests.sim import clock_oracle

KB = 1024
MB = 1024 * 1024

# Small but adversarial: a working set several times the L2, moderate
# writes (exercising dirty evictions and the writeback cascade), and
# short chunks (plenty of misses).
_PROFILE = WorkloadProfile("randomized", hot_bytes=96 * KB, cold_bytes=2 * MB,
                           hot_fraction=0.6, chunk_blocks=4,
                           write_fraction=0.35, mean_gap=7)


def random_trace(events: int = 4000, seed: int = 99):
    return generate_trace(_PROFILE, events, seed)


@pytest.fixture(autouse=True)
def _sanitizer_disarmed():
    """These tests assert the compiled path *engages*, which an armed

    sanitizer (leaked by an unrelated test, or ``REPRO_SANITIZE=1``
    without the suite knowing) would legitimately prevent.
    """
    previous = sanitizer.active()
    sanitizer.disarm()
    yield
    if previous is not None:
        sanitizer.arm(previous)
    else:
        sanitizer.disarm()


def run_oracle(config: MachineConfig, trace, **kw):
    return clock_oracle.run(TimingSimulator(config), trace, **kw)


def run_compiled(config: MachineConfig, trace, **kw):
    sim = TimingSimulator(config)
    with fastpath.forced(True):
        return sim.run(trace, **kw)


def as_fields(result) -> dict:
    return dataclasses.asdict(result)


class TestSchemeCrossProduct:
    def test_every_registered_scheme_combo_is_byte_identical(self):
        """The property test of the equivalence claim.

        Every (encryption, integrity) combination the registries accept,
        on a seeded randomized trace, with metrics collected — the
        replay and the clock oracle must agree on every field.
        """
        trace = random_trace()
        combos = 0
        for enc in schemes.encryption_keys():
            for integ in schemes.integrity_keys():
                try:
                    config = MachineConfig(encryption=enc, integrity=integ)
                except ConfigurationError:
                    continue  # e.g. bonsai without counter storage
                try:
                    ref = run_oracle(config, trace, warmup=0.3,
                                     collect_metrics=True)
                except ConfigurationError:
                    continue
                comp = run_compiled(config, trace, warmup=0.3,
                                    collect_metrics=True)
                assert as_fields(comp) == as_fields(ref), (enc, integ)
                combos += 1
        assert combos >= 30  # the registries really were crossed

    @pytest.mark.parametrize("preset", preset_names(full=True))
    def test_presets_match_the_per_event_engine_too(self, preset):
        """Every preset, twice on one machine with the gate on: the warm
        second run is a live run (warm caches, or deferred updates from
        the start) and must equal the clock oracle's warm second run."""
        trace = random_trace(seed=7)
        config = MachineConfig.preset(preset)
        ref_sim = TimingSimulator(config)
        ref = [as_fields(clock_oracle.run(ref_sim, trace)) for _ in range(2)]
        sim = TimingSimulator(config)
        with fastpath.forced(True):
            fast = [as_fields(sim.run(trace)) for _ in range(2)]
        assert sim.engine_telemetry.last_engine == fastpath.ENGINE_REFERENCE
        assert sim.engine_telemetry.last_reason in ("warm_caches",
                                                    "deferred_updates")
        assert fast == ref


class TestEdges:
    @pytest.mark.parametrize("warmup", [0.0, 0.25, 0.999, 1.0])
    def test_warmup_edges(self, warmup):
        trace = random_trace(events=1500, seed=3)
        config = MachineConfig.preset("aise+bmt")
        ref = run_oracle(config, trace, warmup=warmup)
        comp = run_compiled(config, trace, warmup=warmup)
        assert as_fields(comp) == as_fields(ref)
        with fastpath.forced(False):
            live = TimingSimulator(config).run(trace, warmup=warmup)
        assert as_fields(live) == as_fields(ref)

    def test_warm_reuse_falls_back_and_still_matches(self):
        """Run twice on one simulator: the second run sees warm caches.

        The memoized replay only engages on cold caches (it installs the
        recorded final contents afterwards), so run two must be a live
        run — and both runs must equal the clock oracle's.
        """
        trace = random_trace(events=2000, seed=11)
        config = MachineConfig.preset("aise+bmt")
        ref_sim = TimingSimulator(config)
        ref1, ref2 = (clock_oracle.run(ref_sim, trace) for _ in range(2))
        comp_sim = TimingSimulator(config)
        with fastpath.forced(True):
            comp1, comp2 = comp_sim.run(trace), comp_sim.run(trace)
        assert as_fields(comp1) == as_fields(ref1)
        assert as_fields(comp2) == as_fields(ref2)

    def test_armed_sanitizer_disables_the_compiled_replay(self):
        trace = random_trace(events=800, seed=5)
        config = MachineConfig.preset("aise+bmt")
        sim = TimingSimulator(config)
        with sanitizer.sanitized(), fastpath.forced(True):
            armed = sim.run(trace)
        telemetry = sim.engine_telemetry
        assert (telemetry.last_engine, telemetry.last_reason) == (
            fastpath.ENGINE_REFERENCE, "sanitizer_armed")
        # ... and the live run's result matches the unarmed one.
        assert as_fields(armed) == as_fields(run_compiled(config, trace))

    def test_lowering_is_shared_across_timing_parameters(self):
        """Timing knobs replay one artifact; geometry changes re-lower."""
        trace = random_trace(events=1200, seed=13)
        slow = MachineConfig.preset("aise+bmt")
        fast_mem = MachineConfig.preset("aise+bmt", memory_latency=77)
        run_compiled(slow, trace)
        run_compiled(fast_mem, trace)
        assert len(trace.__dict__["_compiled"]) == 1
        assert as_fields(run_compiled(fast_mem, trace)) == as_fields(
            run_oracle(fast_mem, trace))

    def test_pickled_traces_drop_the_lowering(self):
        trace = random_trace(events=600, seed=17)
        run_compiled(MachineConfig.preset("aise"), trace)
        assert "_compiled" in trace.__dict__
        assert compiled.L2_STAGE_MEMO in trace.__dict__  # aise lowers staged
        assert "_pres" in trace.__dict__
        clone = pickle.loads(pickle.dumps(trace))
        assert "_compiled" not in clone.__dict__
        assert compiled.L2_STAGE_MEMO not in clone.__dict__
        assert "_pres" not in clone.__dict__
        assert clone.digest() == trace.digest()


class TestDemandLoop:
    """The walk's demand loop writes a miss's common path inline: the
    counter-cache hit, a bare data MAC and the L2 fill."""

    @pytest.mark.parametrize("preset", ["base", "aise+bmt"])
    def test_armed_live_run_checks_every_l2_fill(self, preset):
        """Armed, every L2 fill (a demand fill or a metadata insert) runs
        the sanitizer's insert check once: once per L2 miss of the run.
        A small L2 fills its sets, so fills evict as well."""
        sim = TimingSimulator(MachineConfig.preset(preset, **_SMALL))
        l2 = sim.l2
        checked = []
        original = type(l2)._sanitize_insert

        def counting(cache, cache_set):
            if cache is l2:
                checked.append(len(cache_set))
            return original(cache, cache_set)

        with mock.patch.object(type(l2), "_sanitize_insert", counting), \
                sanitizer.sanitized():
            result = sim.run(random_trace(events=3000, seed=23), warmup=0.0)
        assert sim.engine_telemetry.last_reason == "sanitizer_armed"
        assert result.l2_misses > 0
        assert len(checked) == l2.stats.misses
        if preset == "base":
            assert len(checked) == result.l2_misses

    def test_demand_fill_of_a_block_its_counter_walk_fetched(self):
        """A demand miss on the very tree-node block its own counter walk
        installs in the L2 refills that line as data. No generated trace
        reaches it (they stay far below the metadata region), so the
        address is found by iterating the walk's level-0 fetch to a
        fixed point."""
        config = MachineConfig.preset("aise+bmt", **_SMALL)
        sim = TimingSimulator(config)

        def fetched(addr):
            nodes = []
            probe = walk.miss_walk(sim, [].append, emit=lambda event, **f: (
                nodes.append(f["addr"]) if event == "merkle_fetch" else None))
            probe.counter_access(probe.counter_block(addr), False)
            probe.close()
            return nodes

        addr = sim.layout.tree_base
        for _ in range(64):
            nodes = fetched(addr)
            if addr in nodes:
                break
            addr = nodes[0]
        assert addr in fetched(addr), "no self-fetching tree-node block"
        # The refilled (dirty) line, then its set's other blocks and low
        # ones, long enough to evict it and to sample occupancy; a warm
        # second run reads the state each path left behind.
        block = addr // BLOCK_SIZE
        stride = sim.l2.num_sets
        blocks = [block] + [block + stride * (k % 6 + 1) if k % 2 else k
                            for k in range(300)] + [block]
        trace = make_trace(blocks, [1] + [int(k % 3 == 0)
                                          for k in range(len(blocks) - 1)])
        oracle_sim = TimingSimulator(config)
        want = [as_fields(clock_oracle.run(oracle_sim, trace, warmup=0.0))
                for _ in range(2)]
        for gate in (True, False):
            sim = TimingSimulator(config)
            with fastpath.forced(gate):
                got = [as_fields(sim.run(trace, warmup=0.0)) for _ in range(2)]
            assert got == want, gate


# -- the staged lowering -------------------------------------------------------

STAGED_PRESETS = ("base", "aise", "global32", "global64")

# Small caches make deep sets and counter-cache evictions cheap to reach.
_SMALL = {"l2": CacheConfig(8 * KB, 4, 10),
          "counter_cache": CacheConfig(2 * KB, 4, 10)}


def assert_same_lowering(staged, sequential):
    """Every slot of two lowerings equal, arrays in dtype and shape too.

    The final cache contents compare through their one canonical form
    (the routes keep them in different shapes), class-tally key order
    and zero-count keys included.
    """
    for slot in compiled.CompiledTrace.__slots__:
        if slot.startswith("_"):
            continue
        if slot.startswith("final_"):
            cache = slot[len("final_"):]
            a = staged.final_contents(cache)
            b = sequential.final_contents(cache)
            assert a == b, slot
            if b is not None:
                assert list(a[1].items()) == list(b[1].items()), slot
            continue
        a, b = getattr(staged, slot), getattr(sequential, slot)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), slot
            assert (a.dtype, a.shape) == (b.dtype, b.shape), slot
            assert np.array_equal(a, b), slot
        else:
            assert type(a) is type(b), slot
            assert a == b, slot


def both_lowerings(config, trace, sample_period=_OCCUPANCY_SAMPLE_PERIOD):
    sim = TimingSimulator(config)
    assert compiled.l2_holds_only_data(sim)
    return (compiled.lower_staged(sim, trace, sample_period),
            compiled.lower_sequential(TimingSimulator(config), trace,
                                      sample_period))


def staged_configs(**overrides):
    """Every registered encryption scheme with no integrity scheme."""
    for enc in schemes.encryption_keys():
        try:
            yield MachineConfig(encryption=enc, integrity="none", **overrides)
        except ConfigurationError:
            continue


def make_trace(blocks, ops, gaps=None) -> Trace:
    n = len(blocks)
    return Trace(
        gaps=np.asarray(gaps if gaps is not None else [3] * n, dtype=np.uint32),
        ops=np.asarray(ops, dtype=np.uint8),
        addresses=np.asarray(blocks, dtype=np.uint64) * BLOCK_SIZE,
        name="edge",
    )


@st.composite
def small_traces(draw):
    n = draw(st.integers(1, 400))
    # A narrow block range crowds the sets; a wide one spreads them.
    span = draw(st.sampled_from([16, 256, 4096, 1 << 20]))
    blocks = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    ops = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    return make_trace(blocks, ops, gaps)


class TestStagedLowering:
    @settings(max_examples=40, deadline=None)
    @given(trace=small_traces(), small=st.booleans(),
           sample_period=st.sampled_from([1, 7, 64]))
    def test_staged_equals_sequential_on_generated_traces(
            self, trace, small, sample_period):
        """Every registry encryption key with no integrity scheme."""
        overrides = _SMALL if small else {}
        checked = 0
        for config in staged_configs(**overrides):
            staged, sequential = both_lowerings(config, trace, sample_period)
            assert_same_lowering(staged, sequential)
            checked += 1
        assert checked >= len(STAGED_PRESETS)

    def test_one_set_hammered(self):
        """The deepest lockstep: every access lands in L2 set 0."""
        sets = TimingSimulator(MachineConfig.preset("aise")).l2.num_sets
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 40, 3000) * sets
        ops = rng.integers(0, 2, 3000)
        trace = make_trace(blocks, ops)
        for preset in STAGED_PRESETS:
            staged, sequential = both_lowerings(MachineConfig.preset(preset),
                                                trace)
            assert_same_lowering(staged, sequential)

    def test_all_writes_chain_dirty_victims_into_the_counter_stage(self):
        rng = np.random.default_rng(2)
        trace = make_trace(rng.integers(0, 1 << 16, 4000), [1] * 4000)
        for config in staged_configs(**_SMALL):
            staged, sequential = both_lowerings(config, trace)
            assert_same_lowering(staged, sequential)
            assert int(staged.key_metas[staged.key_idx,
                                        walk._L2WB].sum()) > 0

    @pytest.mark.parametrize("events", [10, 5 * _OCCUPANCY_SAMPLE_PERIOD + 17])
    def test_partial_sample_periods(self, events):
        trace = random_trace(events=events, seed=23)
        for preset in STAGED_PRESETS:
            staged, sequential = both_lowerings(MachineConfig.preset(preset),
                                                trace)
            assert_same_lowering(staged, sequential)
            assert len(staged.ticks) == events // _OCCUPANCY_SAMPLE_PERIOD

    @pytest.mark.parametrize("bench", ["mcf", "gcc", "eon", "art", "swim"])
    def test_spec_profiles(self, bench):
        trace = spec_trace(bench, 30_000)
        for preset in STAGED_PRESETS:
            staged, sequential = both_lowerings(MachineConfig.preset(preset),
                                                trace)
            assert_same_lowering(staged, sequential)

    def test_eligibility_follows_the_scheme_flags(self):
        eligible = {p for p in PRESET_NAMES
                    if compiled.l2_holds_only_data(
                        TimingSimulator(MachineConfig.preset(p)))}
        assert eligible == set(STAGED_PRESETS)
        # Uncached data MACs never touch the L2; cached ones do.
        assert compiled.l2_holds_only_data(
            TimingSimulator(MachineConfig.preset("aise+mac_only")))
        cached = TimingSimulator(MachineConfig.preset(
            "aise+mac_only", cache_data_macs=True))
        assert not compiled.l2_holds_only_data(cached)
        with pytest.raises(ValueError):
            compiled.lower_staged(cached, random_trace(200), 64)

    def test_the_l2_stage_is_shared_across_eligible_schemes(self):
        trace = random_trace(events=1500, seed=29)
        for preset in STAGED_PRESETS + ("aise+mac_only",):
            run_compiled(MachineConfig.preset(preset), trace)
        assert len(trace.__dict__[compiled.L2_STAGE_MEMO]) == 1
        run_compiled(MachineConfig.preset("aise+bmt"), trace)  # sequential
        assert len(trace.__dict__[compiled.L2_STAGE_MEMO]) == 1


# -- the key-indexed artifact -------------------------------------------------

def lowered_both_ways(trace, overrides=_SMALL):
    """Lowerings of ``trace`` by both routes: an encryption-only scheme
    staged and sequentially, and a tree scheme's walk."""
    staged, sequential = both_lowerings(
        MachineConfig.preset("aise", **overrides), trace)
    tree = compiled.lower_sequential(
        TimingSimulator(MachineConfig.preset("aise+bmt", **overrides)),
        trace, _OCCUPANCY_SAMPLE_PERIOD)
    return staged, sequential, tree


class TestKeyIndexedArtifact:
    @settings(max_examples=30, deadline=None)
    @given(trace=small_traces(), durations=st.sampled_from([(8, 1), (17, 3)]),
           data=st.data())
    def test_settlement_equals_a_per_miss_reconstruction(self, trace,
                                                          durations, data):
        """Key counts times key tables == the per-miss rows summed."""
        full_dur, frac_dur = durations
        for artifact in lowered_both_ways(trace):
            warm = data.draw(st.integers(0, artifact.misses))
            meta, kinds, busy = artifact.settle(warm, artifact.misses,
                                                full_dur, frac_dur)
            measured = artifact.key_idx[warm:]
            expected_meta = artifact.key_metas[measured].sum(axis=0)
            expected_kinds = artifact.key_kcounts[measured].sum(axis=0)
            assert meta.dtype == kinds.dtype == np.int64
            assert np.array_equal(meta, expected_meta)
            assert np.array_equal(kinds, expected_kinds)
            durs = np.asarray(compiled._durations(full_dur, frac_dur))
            assert busy == int((artifact.key_kcounts[measured] @ durs).sum())

    @settings(max_examples=20, deadline=None)
    @given(trace=small_traces())
    def test_prog_entries_of_equal_keys_are_one_object(self, trace):
        for artifact in lowered_both_ways(trace):
            prog = artifact.prog(8, 1)
            assert len(prog) == artifact.misses
            durs = compiled._durations(8, 1)
            first: dict = {}
            for entry, key in zip(prog, artifact.key_idx.tolist()):
                assert entry is first.setdefault(key, entry)
            for key, entry in first.items():
                pattern, stall, ifetch = artifact.key_programs[key]
                assert entry == (
                    tuple(durs[kind] for kind in artifact.pattern_list[pattern]),
                    stall, ifetch)

    def test_key_idx_is_the_only_per_miss_slot(self):
        """The footprint guard: every other slot is per key, per event,
        per occupancy sample or the final contents."""
        trace = random_trace(events=3000, seed=31)
        for artifact in lowered_both_ways(trace, overrides={}):
            m = artifact.misses
            # No other slot can be this long by coincidence.
            assert len(artifact.key_programs) < m < artifact.n
            assert len(artifact.ticks) < m
            sized = [slot for slot in compiled.CompiledTrace.__slots__
                     if not slot.startswith("_")
                     and hasattr(getattr(artifact, slot), "__len__")]
            assert [slot for slot in sized
                    if len(getattr(artifact, slot)) == m] == ["key_idx"]


# -- the differential properties ----------------------------------------------

# Tier-1 runs a small example budget per registry pair; CI's soak step
# loads the ``soak`` profile (tests/conftest.py) and each pair then takes
# its budget.
_DIFFERENTIAL = (settings() if settings.get_current_profile_name() == "soak"
                 else settings(max_examples=12, deadline=None))

_CACHES = {
    "default": {},
    "small": _SMALL,
    "small+nodes": dict(_SMALL, node_cache=CacheConfig(1 * KB, 2, 4)),
}


def registry_pairs() -> list:
    """Every (encryption, integrity) pair the registries accept and a
    timing simulator can lay out, ``aise+bmt_lazy`` among them."""
    pairs = []
    for enc in schemes.encryption_keys():
        for integ in schemes.integrity_keys():
            try:
                TimingSimulator(MachineConfig(encryption=enc, integrity=integ))
            except ConfigurationError:
                continue
            pairs.append((enc, integ))
    return pairs


REGISTRY_PAIRS = registry_pairs()
# One property per pair, so a failing example shrinks within its pair.
each_pair = pytest.mark.parametrize("pair", REGISTRY_PAIRS, ids="+".join)


def pair_config(pair, caches: str, cached_macs: bool) -> MachineConfig:
    """``pair`` under one cache shape, its data MACs cached or not."""
    overrides = dict(_CACHES[caches])
    if cached_macs:
        overrides["cache_data_macs"] = True
    return MachineConfig(encryption=pair[0], integrity=pair[1], **overrides)


def traced(sim, trace, run, interval: int):
    """``run(sim, trace)`` in an obs session: the result, the JSON Lines
    event stream, the interval samples and the phases."""
    import io

    from repro import obs
    from repro.obs.tracer import EventTracer, JsonlSink

    stream = io.StringIO()
    with obs.observed(tracer=EventTracer(JsonlSink(stream)),
                      interval=interval) as session:
        result = run(sim, trace)
    return (as_fields(result), stream.getvalue(), session.samples,
            session.profiler.snapshot())


def test_every_registry_pair_is_covered():
    assert len(REGISTRY_PAIRS) >= 30  # the registries really were crossed
    assert ("aise", "bmt_lazy") in REGISTRY_PAIRS


class TestDifferential:
    @each_pair
    @_DIFFERENTIAL
    @given(trace=small_traces(), caches=st.sampled_from(sorted(_CACHES)),
           cached_macs=st.booleans(), warmup=st.sampled_from([0.0, 0.3]))
    def test_both_paths_equal_the_oracle_twice(self, pair, trace, caches,
                                               cached_macs, warmup):
        """The memoized replay and a live run against the clock oracle,
        then a warm second run on the same machines.

        With the gate on, the first run replays a cold lowering (a
        deferred tree's is live) and leaves the recorded final contents
        as a pending install; the second run sees warm caches, so it is
        a live run whose walk builds that install on its first cache
        read. With the gate off both runs are live.
        """
        config = pair_config(pair, caches, cached_macs)
        oracle_sim = TimingSimulator(config)
        sims = {gate: TimingSimulator(config) for gate in (True, False)}
        for _ in range(2):
            want = as_fields(clock_oracle.run(oracle_sim, trace, warmup=warmup,
                                              collect_metrics=True))
            for gate, sim in sims.items():
                with fastpath.forced(gate):
                    got = sim.run(trace, warmup=warmup, collect_metrics=True)
                assert as_fields(got) == want, gate

    @each_pair
    @_DIFFERENTIAL
    @given(trace=small_traces(), caches=st.sampled_from(sorted(_CACHES)),
           cached_macs=st.booleans(), first=st.sampled_from([0.0, 0.3]),
           second=st.sampled_from([0.0, 0.5, 1.0]),
           overlap=st.sampled_from([0.25, 1.0]))
    def test_reset_cold_replays_the_memoized_binding(
            self, pair, trace, caches, cached_macs, first, second, overlap):
        """Run, ``reset_cold()``, run again on one machine.

        The warm-pool path: the second run replays the lowering, the
        ``prog`` binding and the trace's ``pres`` memoized by the first,
        at a new warmup and stall overlap. Each run must equal the clock
        oracle on a fresh machine. Staged and sequential routes alike.
        """
        config = pair_config(pair, caches, cached_macs)
        ref = [clock_oracle.run(TimingSimulator(config), trace, warmup=first,
                                collect_metrics=True),
               clock_oracle.run(TimingSimulator(config, overlap=overlap),
                                trace, warmup=second, collect_metrics=True)]
        comp_sim = TimingSimulator(config)
        with fastpath.forced(True):
            comp = [comp_sim.run(trace, warmup=first, collect_metrics=True)]
            telemetry = comp_sim.engine_telemetry
            hits = telemetry.lowering_hits
            comp_sim.reset_cold()
            comp_sim.overlap = overlap
            comp.append(comp_sim.run(trace, warmup=second,
                                     collect_metrics=True))
        if telemetry.compiled:
            # Both runs replayed; the second found the memoized lowering.
            assert telemetry.compiled == 2
            assert telemetry.lowering_hits == hits + 1
        assert as_fields(comp[0]) == as_fields(ref[0])
        assert as_fields(comp[1]) == as_fields(ref[1])

    @each_pair
    @_DIFFERENTIAL
    @given(trace=small_traces(), caches=st.sampled_from(sorted(_CACHES)),
           warmup=st.sampled_from([0.0, 0.3]))
    def test_armed_sanitizer_run_equals_the_oracle(self, pair, trace, caches,
                                                   warmup):
        """An armed sanitizer sends the run live, with its per-fill
        checks in the walk; it must neither raise nor move a number."""
        config = pair_config(pair, caches, False)
        want = as_fields(clock_oracle.run(TimingSimulator(config), trace,
                                          warmup=warmup, collect_metrics=True))
        sim = TimingSimulator(config)
        with sanitizer.sanitized(), fastpath.forced(True):
            got = sim.run(trace, warmup=warmup, collect_metrics=True)
        assert sim.engine_telemetry.last_engine == fastpath.ENGINE_REFERENCE
        assert as_fields(got) == want

    @each_pair
    @_DIFFERENTIAL
    @given(trace=small_traces(), caches=st.sampled_from(sorted(_CACHES)),
           warmup=st.sampled_from([0.0, 0.3, 1.0]),
           interval=st.sampled_from([1, 7, 64, 1000]))
    def test_traced_run_emits_the_oracles_events_and_samples(
            self, pair, trace, caches, warmup, interval):
        """A traced run (walk and replay alternating per interval) and a
        traced warm second run: the same result, JSON Lines bytes,
        interval samples and phases as the oracle's."""
        config = pair_config(pair, caches, False)
        sim, oracle_sim = TimingSimulator(config), TimingSimulator(config)
        for _ in range(2):
            got = traced(sim, trace, lambda s, t: s.run(
                t, warmup=warmup, collect_metrics=True), interval)
            want = traced(oracle_sim, trace, lambda s, t: clock_oracle.run(
                s, t, warmup=warmup, collect_metrics=True), interval)
            assert got == want


class TestSecurityPath:
    def test_tamper_still_raises_with_compiled_gates_on(self):
        """The fast gate must not bypass integrity verification."""
        with fastpath.forced(True):
            machine = make_machine(encryption="aise", integrity="bonsai")
            machine.write_block(0, b"\x5a" * 64)
            machine.memory.corrupt(0)
            with pytest.raises(IntegrityError):
                machine.read_block(0)
