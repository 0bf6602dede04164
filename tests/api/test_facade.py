"""The repro.api facade: equivalence with direct calls, presets.

The facade's contract is *no drift*: every facade call must produce
exactly what the hand-built equivalent produces, because the CLI, the
examples, and the docs all route through it (enforced by API001).
"""

import pytest

from repro import api
from repro.api import (
    ConfigurationError,
    MachineConfig,
    SecureMemorySystem,
    TimingSimulator,
    Trace,
    build_machine,
    load_trace,
    preset_names,
    simulate,
)

PAGE = 4096


class TestPresetGrammar:
    def test_canonical_names_all_resolve(self):
        for name in preset_names():
            config = MachineConfig.preset(name)
            assert isinstance(config, MachineConfig)

    def test_base_alias(self):
        config = MachineConfig.preset("base")
        assert config.encryption == "none"
        assert config.integrity == "none"

    def test_integrity_aliases(self):
        assert MachineConfig.preset("aise+bmt").integrity == "bonsai"
        assert MachineConfig.preset("aise+mt").integrity == "merkle"

    def test_registry_keys_pass_through(self):
        # Non-alias scheme-registry keys are valid preset components.
        assert MachineConfig.preset("aise+bonsai") == MachineConfig.preset("aise+bmt")
        assert MachineConfig.preset("phys_addr+bonsai").encryption == "phys_addr"
        assert MachineConfig.preset("aise+mac_only").integrity == "mac_only"

    def test_overrides_pass_through(self):
        config = MachineConfig.preset("aise+bmt", mac_bits=64, physical_bytes=1 << 20)
        assert config.mac_bits == 64
        assert config.physical_bytes == 1 << 20

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError, match="no preset named"):
            MachineConfig.preset("rot13+pinky_promise")


class TestBuildMachine:
    def test_builds_booted_machine(self):
        machine = build_machine("aise+bmt", physical_bytes=4 * PAGE)
        assert isinstance(machine, SecureMemorySystem)
        machine.write_block(0, bytes(64))  # raises if unbooted
        assert machine.read_block(0) == bytes(64)

    def test_boot_false(self):
        machine = build_machine("aise+bmt", boot=False, physical_bytes=4 * PAGE)
        with pytest.raises(ConfigurationError):
            machine.read_block(0)

    def test_accepts_ready_config(self):
        config = MachineConfig.preset("aise", physical_bytes=4 * PAGE)
        machine = build_machine(config)
        assert machine.config is config

    def test_config_plus_overrides_rejected(self):
        with pytest.raises(TypeError):
            build_machine(MachineConfig.preset("aise"), physical_bytes=4 * PAGE)


class TestLoadTrace:
    def test_trace_passthrough_is_identity(self):
        trace = load_trace("stream", 500)
        assert load_trace(trace) is trace

    def test_synthetics_and_spec(self):
        for name in ("stream", "chase", "resident", "art"):
            trace = load_trace(name, 400)
            assert isinstance(trace, Trace)
            assert len(trace) == 400

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            load_trace("quake3", 100)


class TestSimulateEquivalence:
    def test_matches_hand_built_simulator(self):
        trace = load_trace("art", 4000)
        via_facade = simulate(trace, "aise+bmt")
        by_hand = TimingSimulator(MachineConfig.preset("aise+bmt"), overlap=0.7).run(
            trace, label="aise+bmt", warmup=0.25
        )
        assert via_facade.to_dict() == by_hand.to_dict()

    def test_label_defaults_to_preset(self):
        result = simulate(load_trace("art", 2000), "global64+mt")
        assert result.config_label == "global64+mt"

    def test_sweep_rejects_unknown_labels_before_running(self):
        with pytest.raises(ValueError, match="unknown configs"):
            api.sweep(configs=["aise+bmt", "nope"], benchmarks=["art"], events=100)
        with pytest.raises(ValueError, match="unknown benchmarks"):
            api.sweep(configs=["base"], benchmarks=["quake3"], events=100)


class TestFacadeSurface:
    def test_all_exports_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_package_root_reexports_facade(self):
        import repro

        assert repro.api is api
        assert repro.build_machine is build_machine

    def test_preset_names_cover_sweep_registry(self):
        from repro.evalx.runner import CONFIGS

        assert tuple(CONFIGS) == preset_names()


class TestPrecompile:
    def test_precompile_warms_the_lowering(self):
        summary = api.precompile("art", "aise+bmt", events=3000)
        assert summary["events"] == 3000
        assert summary["misses"] > 0
        assert summary["patterns"] > 0
        assert summary["cached"] is False
        # Same trace, same geometry: memo hit.
        again = api.precompile(summary["trace"], "aise+bmt")
        assert again["cached"] is True
        assert again["misses"] == summary["misses"]

    def test_deferred_update_tree_has_nothing_to_precompile(self):
        with pytest.raises(ValueError, match="deferred_updates"):
            api.precompile("mcf", "aise+bmt_lazy", events=3000)
        config = MachineConfig.preset("aise+bmt_lazy")
        with pytest.raises(ValueError, match="aise\\+bmt_lazy"):
            api.precompile("mcf", config, events=3000)

    def test_precompiled_trace_simulates_identically(self):
        summary = api.precompile("gcc", "aise+bmt", events=3000)
        warmed = api.simulate(summary["trace"], "aise+bmt")
        fresh = api.simulate("gcc", "aise+bmt", events=3000)
        assert warmed == fresh


class TestFullPresetNames:
    def test_canonical_names_come_first(self):
        full = api.preset_names(full=True)
        assert full[: len(preset_names())] == preset_names()

    def test_surfaces_registry_valid_combos(self):
        full = api.preset_names(full=True)
        assert "aise+bmt_lazy" in full
        assert "base+loghash" in full

    def test_every_full_name_resolves(self):
        for name in api.preset_names(full=True):
            assert isinstance(MachineConfig.preset(name), MachineConfig)

    @pytest.mark.parametrize("name", api.preset_names(full=True))
    def test_every_full_name_builds_both_systems(self, name):
        """A listed label is one a client can run: it has a memory layout
        for the timing simulator and for the functional machine."""
        assert isinstance(api.TimingSimulator(MachineConfig.preset(name)), api.TimingSimulator)
        machine = api.build_machine(name, physical_bytes=4 * 4096)
        machine.write_block(0, b"\x5a" * 64)
        assert machine.read_block(0) == b"\x5a" * 64

    def test_labels_without_a_layout_are_not_listed(self):
        """A Bonsai tree covers counters: counter-free encryption has none."""
        full = api.preset_names(full=True)
        for name in ("base+bmt", "base+bmt_lazy", "direct+bmt", "direct+bmt_lazy"):
            assert name not in full
            with pytest.raises(api.ConfigurationError):
                api.TimingSimulator(MachineConfig.preset(name))

    def test_no_duplicate_resolved_configs(self):
        resolved = [
            (MachineConfig.preset(n).encryption, MachineConfig.preset(n).integrity)
            for n in api.preset_names(full=True)
        ]
        assert len(resolved) == len(set(resolved))


class TestKnobGrammar:
    """One knob grammar across the facade (mirrors the API002 lint)."""

    KNOB_DEFAULTS = {"events": 60_000, "workers": 1, "cache_dir": None,
                     "metrics": False, "overlap": 0.7, "warmup": 0.25}

    @pytest.mark.parametrize("fn", [api.simulate, api.sweep, api.trace,
                                    api.precompile])
    def test_shared_knobs_default_identically(self, fn):
        import inspect

        for name, param in inspect.signature(fn).parameters.items():
            if name in self.KNOB_DEFAULTS:
                assert param.default == self.KNOB_DEFAULTS[name], \
                    f"{fn.__name__}({name}=...)"

    def test_schema_requests_share_the_grammar(self):
        import dataclasses

        from repro.api import schema

        for cls in (schema.SimulateRequest, schema.SweepRequest,
                    schema.TraceRequest, schema.PrecompileRequest):
            for field in dataclasses.fields(cls):
                if field.name in self.KNOB_DEFAULTS:
                    assert field.default == self.KNOB_DEFAULTS[field.name], \
                        f"{cls.__name__}.{field.name}"
