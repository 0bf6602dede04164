"""The bmt_lazy scheme: one file, every layer of the stack.

``LazyBonsaiMerkleScheme`` is the worked example of the descriptor
hooks: it picks the tree's lazy, coalescing policies (``build_tree``),
declares a deferred update policy (``update_policy``), and publishes its
engine gauges (``engine_stats``) — without the machine, the kernel, the
simulator, or the obs adapters naming it. These tests pin each of those integration
points, plus functional equivalence with the eager ``bonsai`` scheme.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import fastpath, schemes
from repro.core import IntegrityError, MachineConfig, sanitizer
from repro.core.config import INT_BMT_LAZY
from repro.integrity.merkle import MerkleTree
from repro.obs.adapters import register_machine, register_simulator
from repro.obs.registry import MetricsRegistry
from repro.sim.simulator import TimingSimulator
from repro.workloads.synthetic import WorkloadProfile, generate_trace
from tests.conftest import TINY, make_machine

PAGE = 4096


class TestRegistration:
    def test_registered_under_its_config_constant(self):
        assert INT_BMT_LAZY in schemes.integrity_keys()
        scheme = schemes.integrity_scheme(INT_BMT_LAZY)
        assert scheme.uses_tree
        assert scheme.update_policy.deferred
        assert scheme.update_policy.coalesce

    def test_eager_schemes_keep_the_default_policy(self):
        for key in ("bonsai", "merkle"):
            policy = schemes.integrity_scheme(key).update_policy
            assert not policy.deferred

    def test_tree_modules_feed_the_fingerprint(self):
        scheme = schemes.integrity_scheme(INT_BMT_LAZY)
        assert scheme.tree_modules() == ("repro.integrity.merkle",)
        files = schemes.scheme_source_files()
        assert any(f.endswith("integrity/merkle.py") for f in files)

    def test_build_tree_hook_selects_the_implementation(self):
        lazy = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        eager = make_machine(integrity="bonsai", data_bytes=TINY)
        assert type(lazy.tree) is type(eager.tree) is MerkleTree
        assert (lazy.tree.lazy, lazy.tree.coalesce) == (True, True)
        assert (eager.tree.lazy, eager.tree.coalesce) == (False, False)


class TestFunctionalMachine:
    def test_write_read_roundtrip(self):
        machine = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        machine.write_bytes(0, b"\x5a" * 64)
        assert machine.read_bytes(0, 64) == b"\x5a" * 64

    def test_matches_eager_bonsai_data_results(self):
        lazy = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        eager = make_machine(integrity="bonsai", data_bytes=TINY)
        for i in range(32):
            addr = (i * 3 % 16) * 256
            data = bytes([i + 1]) * 64
            lazy.write_bytes(addr, data)
            eager.write_bytes(addr, data)
        for i in range(16):
            addr = i * 256
            assert lazy.read_bytes(addr, 64) == eager.read_bytes(addr, 64)

    def test_counter_block_tamper_detected(self):
        machine = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        machine.write_bytes(0, b"\x11" * 64)
        machine.tree.flush_pending()
        cb = machine.encryption.counter_block_address(0)
        machine.memory.corrupt(cb)
        machine.encryption.drop_cached_counters(0)
        machine.tree.clear_volatile()
        with pytest.raises(IntegrityError):
            machine.read_bytes(0, 64)

    def test_hibernate_resume_roundtrip(self):
        machine = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        machine.write_bytes(256, b"\x42" * 64)
        nonvolatile, image = machine.hibernate()
        resumed = type(machine).resume(nonvolatile, image, machine.config)
        assert resumed.read_bytes(256, 64) == b"\x42" * 64

    def test_powered_down_tamper_detected_after_resume(self):
        machine = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        machine.write_bytes(0, b"\x33" * 64)
        nonvolatile, image = machine.hibernate()
        cb = machine.encryption.counter_block_address(0)
        image = dict(image)
        image[cb] = bytes(reversed(image[cb]))
        resumed = type(machine).resume(nonvolatile, image, machine.config)
        with pytest.raises(IntegrityError):
            resumed.read_bytes(0, 64)


class TestKernelSwap:
    def test_swap_roundtrip_under_memory_pressure(self, kernel_factory):
        """Heavy replacement traffic: counter-run installs on swap-in
        must flush the pending paths for the page (the machine's
        ``counter_run_range`` + ``flush_pending`` hook)."""
        k = kernel_factory(integrity="bmt_lazy", frames=16, swap_slots=64)
        p = k.create_process()
        pages = 48  # 3x physical frames
        k.mmap(p.pid, 0, pages * PAGE)
        for page in range(pages):
            k.write(p.pid, page * PAGE, bytes([page + 1]) * 64)
        for page in range(pages):
            assert k.read(p.pid, page * PAGE, 64) == bytes([page + 1]) * 64
        assert k.stats.swap_ins > 0  # pressure was real

    def test_swap_matches_eager_bonsai(self, kernel_factory):
        results = {}
        for integ in ("bonsai", "bmt_lazy"):
            k = kernel_factory(integrity=integ, frames=16, swap_slots=64)
            p = k.create_process()
            k.mmap(p.pid, 0, 40 * PAGE)
            for page in range(40):
                k.write(p.pid, page * PAGE, bytes([page + 7]) * 64)
            results[integ] = [k.read(p.pid, page * PAGE, 64) for page in range(40)]
        assert results["bonsai"] == results["bmt_lazy"]


class TestTimingSimulator:
    _PROFILE = WorkloadProfile("lazy-sweep", hot_bytes=256 * 1024,
                               cold_bytes=24 * 1024 * 1024, hot_fraction=0.3,
                               chunk_blocks=2, write_fraction=0.5, mean_gap=5)

    @pytest.fixture(autouse=True)
    def _sanitizer_disarmed(self):
        # The engine-selection assertions here need the compiled path
        # *available*; an armed sanitizer (REPRO_SANITIZE=1) legitimately
        # pre-empts it with its own fallback reason.
        previous = sanitizer.active()
        sanitizer.disarm()
        yield
        if previous is not None:
            sanitizer.arm(previous)
        else:
            sanitizer.disarm()

    def _trace(self):
        return generate_trace(self._PROFILE, 6000, 5)

    def test_three_engines_are_byte_identical_with_deferral_traffic(self):
        trace = self._trace()
        config = MachineConfig(encryption="aise", integrity="bmt_lazy")
        runs = {}
        sims = {}
        for mode in ("reference", "per_event", "compiled"):
            sim = TimingSimulator(config)
            if mode == "reference":
                with fastpath.forced(False):
                    result = sim.run(trace, warmup=0.3, collect_metrics=True)
            elif mode == "per_event":
                with fastpath.forced(True), fastpath.forced_compiled(False):
                    result = sim.run(trace, warmup=0.3, collect_metrics=True)
            else:
                with fastpath.forced(True), fastpath.forced_compiled(True):
                    result = sim.run(trace, warmup=0.3, collect_metrics=True)
            runs[mode] = dataclasses.asdict(result)
            sims[mode] = sim
        assert runs["per_event"] == runs["reference"]
        assert runs["compiled"] == runs["reference"]
        # The deferral actually happened (this workload thrashes the
        # counter cache) and the queue fully drained at end of run.
        assert sims["reference"].tree_deferred > 0
        assert not sims["reference"]._pending_walks

    def test_compiled_engine_bows_out_with_the_declared_reason(self):
        trace = self._trace()
        sim = TimingSimulator(MachineConfig(encryption="aise", integrity="bmt_lazy"))
        with fastpath.forced(True), fastpath.forced_compiled(True):
            sim.run(trace, warmup=0.3)
        assert sim.engine_telemetry.last_engine == fastpath.ENGINE_PER_EVENT
        assert sim.engine_telemetry.last_reason == "deferred_updates"
        assert "deferred_updates" in fastpath.FALLBACK_REASONS

    def test_eager_schemes_still_compile(self):
        trace = self._trace()
        sim = TimingSimulator(MachineConfig(encryption="aise", integrity="bonsai"))
        with fastpath.forced(True), fastpath.forced_compiled(True):
            sim.run(trace, warmup=0.3)
        assert sim.engine_telemetry.last_engine == fastpath.ENGINE_COMPILED


class TestObservability:
    def test_simulator_gauges_only_appear_for_deferred_schemes(self):
        lazy = TimingSimulator(MachineConfig(encryption="aise", integrity="bmt_lazy"))
        eager = TimingSimulator(MachineConfig(encryption="aise", integrity="bonsai"))
        lazy_snap = register_simulator(MetricsRegistry(), lazy).snapshot()
        eager_snap = register_simulator(MetricsRegistry(), eager).snapshot()
        for name in ("sim.tree_deferred_walks", "sim.tree_drains",
                     "sim.tree_coalesced_walks", "sim.tree_pending_walks"):
            assert name in lazy_snap
            assert name not in eager_snap  # snapshot shape stays stable

    def test_machine_gauges_track_the_live_tree(self):
        machine = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        registry = MetricsRegistry()
        register_machine(registry, machine)
        machine.write_bytes(0, b"\x01" * 64)
        snap = registry.snapshot()
        assert snap["machine.tree_pending_updates"] >= 1
        machine.tree.flush_pending()
        snap = registry.snapshot()
        assert snap["machine.tree_pending_updates"] == 0
        assert 0 < snap["machine.tree_materialized_fraction"] <= 1
        assert snap["machine.tree_drained_nodes"] > 0

    def test_eager_machines_publish_no_tree_gauges(self):
        machine = make_machine(integrity="bonsai", data_bytes=TINY)
        registry = MetricsRegistry()
        register_machine(registry, machine)
        assert "machine.tree_pending_updates" not in registry.snapshot()


class TestStorage:
    def test_overhead_breakdown_matches_bonsai(self):
        """bmt_lazy changes *when* nodes are written, not the layout: the
        Table 2 storage breakdown is identical to eager bonsai."""
        from repro.core.storage import breakdown_for_config

        eager = breakdown_for_config(MachineConfig(encryption="aise", integrity="bonsai"))
        lazy = breakdown_for_config(MachineConfig(encryption="aise", integrity="bmt_lazy"))
        assert lazy == eager
