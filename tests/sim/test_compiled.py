"""The compiled trace replay: byte-identical to the reference loop.

The pre-compiler's contract is absolute equivalence: lowering a trace
once and replaying it under the timing parameters must reproduce every
field of the reference loop's :class:`SimResult` — cycles to the last
bit (float arithmetic is replayed in the reference operation order, not
re-associated), statistics, metrics snapshot, and the warm cache state
left behind. These tests pin that contract across the registered scheme
cross-product on a randomized trace, at the warmup edge cases, through
warm reuse (where the compiled path must bow out), and under the armed
sanitizer; plus the security half — tampering still raises with the
compiled gate forced on. The staged (set-parallel) lowering is pinned
slot for slot against the sequential one it replaces for schemes whose
L2 holds only demand data.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath, schemes
from repro.core import IntegrityError, sanitizer
from repro.core.config import PRESET_NAMES, CacheConfig, MachineConfig
from repro.core.errors import ConfigurationError
from repro.fastpath import compiled
from repro.mem.layout import BLOCK_SIZE
from repro.sim.simulator import _OCCUPANCY_SAMPLE_PERIOD, TimingSimulator
from repro.sim.trace import Trace
from repro.workloads.spec2k import spec_trace
from repro.workloads.synthetic import WorkloadProfile, generate_trace
from tests.conftest import make_machine

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


def run_reference(config: MachineConfig, trace, **kw):
    sim = TimingSimulator(config)
    with fastpath.forced(False):
        return sim.run(trace, **kw)


def run_compiled(config: MachineConfig, trace, **kw):
    sim = TimingSimulator(config)
    with fastpath.forced(True), fastpath.forced_compiled(True):
        return sim.run(trace, **kw)


def as_fields(result) -> dict:
    return dataclasses.asdict(result)


class TestSchemeCrossProduct:
    def test_every_registered_scheme_combo_is_byte_identical(self):
        """The property test of the equivalence claim.

        Every (encryption, integrity) combination the registries accept,
        on a seeded randomized trace, with metrics collected — compiled
        replay and reference loop must agree on every field.
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
                    ref = run_reference(config, trace, warmup=0.3,
                                        collect_metrics=True)
                except ConfigurationError:
                    continue
                comp = run_compiled(config, trace, warmup=0.3,
                                    collect_metrics=True)
                assert as_fields(comp) == as_fields(ref), (enc, integ)
                combos += 1
        assert combos >= 30  # the registries really were crossed

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_presets_match_the_per_event_engine_too(self, preset):
        trace = random_trace(seed=7)
        config = MachineConfig.preset(preset)
        ref = as_fields(run_reference(config, trace))
        sim = TimingSimulator(config)
        with fastpath.forced(True), fastpath.forced_compiled(False):
            per_event = as_fields(sim.run(trace))
        comp = as_fields(run_compiled(config, trace))
        assert comp == ref
        assert per_event == ref


class TestEdges:
    @pytest.mark.parametrize("warmup", [0.0, 0.25, 0.999, 1.0])
    def test_warmup_edges(self, warmup):
        trace = random_trace(events=1500, seed=3)
        config = MachineConfig.preset("aise+bmt")
        ref = run_reference(config, trace, warmup=warmup)
        comp = run_compiled(config, trace, warmup=warmup)
        assert as_fields(comp) == as_fields(ref)

    def test_warm_reuse_falls_back_and_still_matches(self):
        """Run twice on one simulator: the second run sees warm caches.

        The compiled replay only engages on cold caches (it installs the
        recorded final contents afterwards), so run two must fall back to
        the per-event engine — and both runs must equal the reference.
        """
        trace = random_trace(events=2000, seed=11)
        config = MachineConfig.preset("aise+bmt")
        ref_sim = TimingSimulator(config)
        with fastpath.forced(False):
            ref1, ref2 = ref_sim.run(trace), ref_sim.run(trace)
        comp_sim = TimingSimulator(config)
        with fastpath.forced(True), fastpath.forced_compiled(True):
            comp1, comp2 = comp_sim.run(trace), comp_sim.run(trace)
        assert as_fields(comp1) == as_fields(ref1)
        assert as_fields(comp2) == as_fields(ref2)

    def test_armed_sanitizer_disables_the_compiled_replay(self):
        from repro.fastpath.compiled import execute_compiled

        trace = random_trace(events=800, seed=5)
        config = MachineConfig.preset("aise+bmt")
        with sanitizer.sanitized():
            assert execute_compiled(TimingSimulator(config), trace,
                                    0.25, 64) is None
            # ... and the full run (reference loop) still works and
            # matches the unsanitized result.
            armed = run_reference(config, trace)
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
            run_reference(fast_mem, trace))

    def test_pickled_traces_drop_the_lowering(self):
        trace = random_trace(events=600, seed=17)
        run_compiled(MachineConfig.preset("aise"), trace)
        assert "_compiled" in trace.__dict__
        assert compiled.L2_STAGE_MEMO in trace.__dict__  # aise lowers staged
        clone = pickle.loads(pickle.dumps(trace))
        assert "_compiled" not in clone.__dict__
        assert compiled.L2_STAGE_MEMO not in clone.__dict__
        assert clone.digest() == trace.digest()


# -- the staged lowering -------------------------------------------------------

STAGED_PRESETS = ("base", "aise", "global32", "global64")

# Small caches make deep sets and counter-cache evictions cheap to reach.
_SMALL = {"l2": CacheConfig(8 * KB, 4, 10),
          "counter_cache": CacheConfig(2 * KB, 4, 10)}


def assert_same_lowering(staged, sequential):
    """Every slot of two lowerings equal, arrays in dtype and shape too."""
    for slot in compiled.CompiledTrace.__slots__:
        if slot.startswith("_"):
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
            assert int(staged.metas[:, compiled._L2WB].sum()) > 0

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


class TestSecurityPath:
    def test_tamper_still_raises_with_compiled_gates_on(self):
        """The fast gates must not bypass integrity verification."""
        with fastpath.forced(True), fastpath.forced_compiled(True):
            machine = make_machine(encryption="aise", integrity="bonsai")
            machine.write_block(0, b"\x5a" * 64)
            machine.memory.corrupt(0)
            with pytest.raises(IntegrityError):
                machine.read_block(0)
