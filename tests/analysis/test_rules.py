"""Per-rule fixtures: one snippet that must trigger, one that must not.

``logical_path`` lets a fixture pretend to live anywhere in the package
tree, so path scoping (core/ vs evalx/ vs crypto/) is exercised without
touching real files.
"""

from __future__ import annotations

from repro.analysis import analyze_source, get_rules


def findings_for(rule_id, source, logical):
    return analyze_source(
        source,
        path="fixture.py",
        logical_path=logical,
        rules=get_rules(select=[rule_id]),
    )


def triggers(rule_id, source, logical):
    return bool(findings_for(rule_id, source, logical))


class TestSec001SeedProvenance:
    def test_flags_seed_scheme_class_outside_home(self):
        src = "class SneakySeedScheme:\n    pass\n"
        assert triggers("SEC001", src, "core/machine.py")

    def test_flags_seed_method_on_other_class(self):
        src = "class Engine:\n    def seed(self, block):\n        return block\n"
        assert triggers("SEC001", src, "integrity/bonsai.py")

    def test_flags_address_derived_seed_assignment(self):
        src = "seed = (paddr << 8) | chunk\n"
        assert triggers("SEC001", src, "core/encryption.py")

    def test_flags_seed_factory_returning_address_material(self):
        src = "def make_seed(block_addr):\n    return (block_addr << 6) | 3\n"
        assert triggers("SEC001", src, "crypto/pad.py")

    def test_home_file_is_exempt(self):
        src = "class AiseSeedScheme:\n    def seed(self, x):\n        return x\n"
        assert not triggers("SEC001", src, "core/seeds.py")

    def test_counter_composed_seed_is_fine(self):
        src = "seed = (lpid << 64) | minor\n"
        assert not triggers("SEC001", src, "core/encryption.py")

    def test_unwatched_directories_are_exempt(self):
        src = "seed = (paddr << 8) | chunk\n"
        assert not triggers("SEC001", src, "evalx/tables.py")


class TestSec002UnkeyedHash:
    def test_flags_sha256(self):
        src = "import hashlib\nd = hashlib.sha256(data).digest()\n"
        assert triggers("SEC002", src, "integrity/macs.py")

    def test_flags_unkeyed_blake2(self):
        src = "import hashlib\nd = hashlib.blake2s(data).digest()\n"
        assert triggers("SEC002", src, "core/machine.py")

    def test_keyed_blake2_is_fine(self):
        src = "import hashlib\nd = hashlib.blake2s(data, key=secret).digest()\n"
        assert not triggers("SEC002", src, "core/machine.py")

    def test_domain_separated_blake2_is_fine(self):
        src = "import hashlib\nd = hashlib.blake2s(data, person=b'key-wrap').digest()\n"
        assert not triggers("SEC002", src, "core/encryption.py")

    def test_crypto_and_merkle_internals_are_exempt(self):
        src = "import hashlib\nd = hashlib.sha256(data).digest()\n"
        assert not triggers("SEC002", src, "crypto/mac.py")
        assert not triggers("SEC002", src, "integrity/merkle.py")


class TestSec003CounterMutation:
    def test_flags_minor_subscript_write(self):
        src = "block.minors[3] = 5\n"
        assert triggers("SEC003", src, "core/machine.py")

    def test_flags_major_augmented_assign(self):
        src = "ctr.major += 1\n"
        assert triggers("SEC003", src, "sim/simulator.py")

    def test_flags_lpid_overwrite(self):
        src = "page.lpid = 7\n"
        assert triggers("SEC003", src, "osmodel/kernel.py")

    def test_home_file_is_exempt(self):
        src = "self.minors[block_in_page] = value\n"
        assert not triggers("SEC003", src, "core/counters.py")

    def test_local_variable_named_minors_is_fine(self):
        src = "minors = [0] * 64\n"
        assert not triggers("SEC003", src, "core/machine.py")


class TestSec004PrivateStateReach:
    def test_flags_chained_private_access(self):
        src = "self.encryption._cache.clear()\n"
        assert triggers("SEC004", src, "core/machine.py")

    def test_flags_chained_private_read(self):
        src = "n = machine.tree._trusted\n"
        assert triggers("SEC004", src, "osmodel/kernel.py")

    def test_flags_chained_private_assignment_target(self):
        src = "machine.memory._blocks = dict(image)\n"
        assert triggers("SEC004", src, "core/machine.py")

    def test_own_private_field_is_fine(self):
        src = "self._cache.clear()\n"
        assert not triggers("SEC004", src, "core/encryption.py")

    def test_name_rooted_private_access_is_fine(self):
        src = "if not machine._booted:\n    machine.boot()\n"
        assert not triggers("SEC004", src, "osmodel/kernel.py")

    def test_dunder_attribute_is_fine(self):
        src = "name = type(scheme).__module__\n"
        assert not triggers("SEC004", src, "evalx/parallel.py")


class TestSch001SchemeConstantDispatch:
    def test_flags_constant_comparison_in_simulator(self):
        src = "if self.enc == ENC_AISE:\n    pass\n"
        assert triggers("SCH001", src, "sim/simulator.py")

    def test_flags_constant_import_in_machine(self):
        src = "from .config import ENC_PHYS\n"
        assert triggers("SCH001", src, "core/machine.py")

    def test_flags_membership_test_in_kernel(self):
        src = "if scheme in (ENC_PHYS, ENC_SPLIT):\n    pass\n"
        assert triggers("SCH001", src, "osmodel/kernel.py")

    def test_config_home_is_exempt(self):
        src = "ENC_AISE = 'aise'\nschemes = (ENC_AISE,)\n"
        assert not triggers("SCH001", src, "core/config.py")

    def test_scheme_descriptors_are_exempt(self):
        src = "from ..core.config import ENC_AISE\nkey = ENC_AISE\n"
        assert not triggers("SCH001", src, "schemes/encryption.py")


class TestSch002TreeNodeMutation:
    def test_flags_subscript_write_into_dirty_cache(self):
        src = "machine.tree._dirty[(1, 0)] = raw\n"
        assert triggers("SCH002", src, "core/machine.py")

    def test_flags_mutating_call_on_materialized_set(self):
        src = "self.tree._materialized.add((1, 4))\n"
        assert triggers("SCH002", src, "osmodel/kernel.py")

    def test_flags_trusted_cache_pop_through_tree(self):
        src = "sim.tree._trusted.pop(addr, None)\n"
        assert triggers("SCH002", src, "sim/simulator.py")

    def test_flags_direct_root_store(self):
        src = "machine.tree.root.store(mac)\n"
        assert triggers("SCH002", src, "core/machine.py")

    def test_tree_home_package_is_exempt(self):
        src = "self._dirty[key] = effective\nself.root.store(self._mac_top(raw))\n"
        assert not triggers("SCH002", src, "integrity/incremental.py")

    def test_scheduler_api_calls_are_fine(self):
        src = "machine.tree.flush_pending(run[0], run[1])\nmachine.tree.drain(full=True)\n"
        assert not triggers("SCH002", src, "core/machine.py")

    def test_restore_root_api_is_fine(self):
        src = "machine.tree.restore_root(nonvolatile['root'])\n"
        assert not triggers("SCH002", src, "core/machine.py")

    def test_unrelated_containers_are_fine(self):
        src = "self._trusted.pop(addr, None)\nregistry.nodes[0] = n\n"
        assert not triggers("SCH002", src, "obs/registry.py")


class TestDet001Determinism:
    def test_flags_wall_clock(self):
        src = "import time\nstamp = time.time()\n"
        assert triggers("DET001", src, "sim/simulator.py")

    def test_flags_bare_imported_time(self):
        src = "from time import time\nstamp = time()\n"
        assert triggers("DET001", src, "core/machine.py")

    def test_flags_global_random(self):
        src = "import random\nx = random.randint(0, 10)\n"
        assert triggers("DET001", src, "workloads/synthetic.py")

    def test_flags_numpy_global_rng(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert triggers("DET001", src, "workloads/synthetic.py")

    def test_flags_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert triggers("DET001", src, "workloads/synthetic.py")

    def test_seeded_default_rng_is_fine(self):
        src = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert not triggers("DET001", src, "workloads/synthetic.py")

    def test_perf_counter_is_fine(self):
        src = "import time\nstart = time.perf_counter()\n"
        assert not triggers("DET001", src, "sim/simulator.py")

    def test_evalx_is_exempt(self):
        src = "import time\nstamp = time.time()\n"
        assert not triggers("DET001", src, "evalx/report.py")


class TestSim001LatencyLiterals:
    def test_flags_literal_latency_assignment(self):
        src = "self.latency = 200\n"
        assert triggers("SIM001", src, "sim/simulator.py")

    def test_flags_literal_added_to_cycle_count(self):
        src = "done = cycles + 28\n"
        assert triggers("SIM001", src, "mem/bus.py")

    def test_config_sourced_latency_is_fine(self):
        src = "self.latency = config.memory_latency\n"
        assert not triggers("SIM001", src, "sim/simulator.py")

    def test_small_resets_are_fine(self):
        src = "self.latency = 0\nnext_cycle = cycle + 1\n"
        assert not triggers("SIM001", src, "sim/simulator.py")

    def test_outside_watched_dirs_is_fine(self):
        src = "memory_latency = 200\n"
        assert not triggers("SIM001", src, "core/config.py")

    def test_suppression_comment_works(self):
        src = "self.latency = 200  # repro: allow(SIM001)\n"
        assert not triggers("SIM001", src, "sim/simulator.py")


class TestGeneralHygiene:
    def test_gen001_flags_bare_except(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert triggers("GEN001", src, "core/machine.py")

    def test_gen001_typed_except_is_fine(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert not triggers("GEN001", src, "core/machine.py")

    def test_gen002_flags_mutable_defaults(self):
        assert triggers("GEN002", "def f(x=[]):\n    pass\n", "core/machine.py")
        assert triggers("GEN002", "def f(x=dict()):\n    pass\n", "core/machine.py")

    def test_gen002_none_default_is_fine(self):
        src = "def f(x=None):\n    pass\n"
        assert not triggers("GEN002", src, "core/machine.py")


class TestObs001StatsMutation:
    def test_flags_foreign_stats_assignment(self):
        src = "self.l2.stats = CacheStats()\n"
        assert triggers("OBS001", src, "sim/simulator.py")

    def test_flags_foreign_stats_field_increment(self):
        src = "cache.stats.hits += 1\n"
        assert triggers("OBS001", src, "evalx/runner.py")

    def test_owner_files_are_exempt(self):
        src = "self.stats.hits += 1\n"
        assert not triggers("OBS001", src, "mem/cache.py")
        assert not triggers("OBS001", src, "mem/bus.py")

    def test_obs_package_is_exempt(self):
        src = "owner.stats.hits += 1\n"
        assert not triggers("OBS001", src, "obs/adapters.py")

    def test_reading_stats_is_fine(self):
        src = "hits = self.l2.stats.hits\n"
        assert not triggers("OBS001", src, "sim/simulator.py")

    def test_non_stats_assignment_is_fine(self):
        src = "self.l2.tracer = tracer\n"
        assert not triggers("OBS001", src, "sim/simulator.py")


class TestObs002RegistryWrites:
    def test_flags_ad_hoc_counter_from_engine_code(self):
        src = "registry.counter('engine.runs')\n"
        assert triggers("OBS002", src, "fastpath/engine.py")

    def test_flags_bind_on_simulator_registry(self):
        src = "self.registry.bind('engine.runs', lambda: 1)\n"
        assert triggers("OBS002", src, "sim/simulator.py")

    def test_flags_scope_registration(self):
        src = "scope.histogram('lat', (1, 2))\n"
        assert triggers("OBS002", src, "fastpath/compiled.py")

    def test_flags_attribute_chained_registry(self):
        src = "sim.registry.gauge('x', 1.0)\n"
        assert triggers("OBS002", src, "evalx/parallel.py")

    def test_obs_package_is_exempt(self):
        src = "registry.bind('engine.runs', lambda: 1)\n"
        assert not triggers("OBS002", src, "obs/adapters.py")

    def test_reading_the_registry_is_fine(self):
        src = "snap = self.registry.snapshot()\nh = registry.get('x')\n"
        assert not triggers("OBS002", src, "sim/simulator.py")

    def test_non_registry_receivers_are_fine(self):
        src = "socket.bind(('', 80))\nconfig.counter('x')\n"
        assert not triggers("OBS002", src, "evalx/report.py")
