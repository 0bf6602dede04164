"""The parallel sweep engine: determinism, disk cache, degradation.

The repo invariant under test: ``run_cells``/``run_grid`` with a process
pool produce :class:`SimResult`s identical — field for field, including
after a JSON round-trip — to the serial reference path, and the on-disk
cache turns an immediate re-run into zero simulations.
"""

import json
import os
from concurrent.futures import Future

import pytest

from repro.core.config import CacheConfig, MachineConfig
from repro.evalx import parallel
from repro.evalx.parallel import (
    Cell,
    ResultCache,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    model_fingerprint,
    run_cells,
)
from repro.evalx.runner import Runner
from repro.sim.results import SimResult
from repro.workloads.spec2k import spec_trace

EVENTS = 3_000
BENCHES = ("art", "gcc")


def small_grid(**kwargs) -> dict:
    runner = Runner(events=EVENTS, benchmarks=BENCHES, **kwargs)
    return runner.run_grid(labels=("base", "aise+bmt"))


class TestSerialization:
    def test_simresult_json_roundtrip_is_lossless(self):
        result = Runner(events=EVENTS, benchmarks=BENCHES).result("art", "aise+bmt")
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_simresult_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            SimResult.from_dict({"name": "x", "config_label": "y", "cycles": 1.0,
                                 "instructions": 1, "bogus": 3})

    def test_config_roundtrip(self):
        config = MachineConfig(encryption="aise", integrity="merkle",
                               node_cache=CacheConfig(64 * 1024, 8, 10))
        assert config_from_dict(config_to_dict(config)) == config
        assert config_fingerprint(config) == config_fingerprint(
            config_from_dict(config_to_dict(config)))

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(MachineConfig.preset("aise+bmt")) != config_fingerprint(
            MachineConfig(encryption="aise", integrity="merkle"))

    def test_trace_digest_tracks_content(self):
        a = spec_trace("art", EVENTS)
        assert a.digest() == spec_trace("art", EVENTS).digest()
        assert a.digest() != spec_trace("gcc", EVENTS).digest()
        assert a.digest() != spec_trace("art", EVENTS + 1).digest()


class TestDeterminism:
    def test_pool_matches_serial_runner(self):
        """The acceptance invariant: run_grid(workers=...) returns results
        identical to the serial Runner, cell for cell."""
        serial = small_grid()
        pooled = small_grid(workers=4)
        assert serial.keys() == pooled.keys()
        for key in serial:
            assert pooled[key] == serial[key], key

    def test_pool_plus_cache_matches_serial(self, tmp_path):
        serial = small_grid()
        cached = small_grid(workers=2, cache_dir=str(tmp_path))
        for key in serial:
            assert cached[key] == serial[key], key

    def test_twin_cells_share_one_simulation(self, tmp_path):
        """mac_bits=None and an explicit default-size override describe
        the same machine; the engine simulates it once."""
        cache = ResultCache(str(tmp_path))
        config = MachineConfig.preset("aise+bmt")
        cells = [
            Cell(bench="art", label="aise+bmt", config=config),
            Cell(bench="art", label="aise+bmt", config=config, mac_bits=128),
        ]
        results = run_cells(cells, events=EVENTS, cache=cache)
        assert len(results) == 2
        assert cache.writes == 1
        assert results[cells[0]] == results[cells[1]]


class TestDiskCache:
    def test_warm_rerun_simulates_nothing(self, tmp_path, monkeypatch):
        cold = Runner(events=EVENTS, benchmarks=BENCHES, cache_dir=str(tmp_path))
        grid = cold.run_grid(labels=("base", "aise+bmt"))
        assert cold.cache.writes == len(grid)

        # A fresh process (modelled by a fresh Runner) with the same cache
        # dir must not simulate at all: forbid the simulator outright.
        def boom(*args, **kwargs):
            raise AssertionError("cache miss: TimingSimulator invoked on a warm cache")

        monkeypatch.setattr(parallel.TimingSimulator, "run", boom)
        warm = Runner(events=EVENTS, benchmarks=BENCHES, cache_dir=str(tmp_path))
        regrid = warm.run_grid(labels=("base", "aise+bmt"))
        assert warm.cache.hits == len(grid)
        assert warm.cache.misses == 0
        assert regrid == grid

    def test_corrupt_record_is_recomputed_and_rewritten(self, tmp_path):
        cache_dir = str(tmp_path)
        grid = small_grid(cache_dir=cache_dir)
        records = sorted(os.listdir(cache_dir))
        with open(os.path.join(cache_dir, records[0]), "w") as f:
            f.write("{ not json")
        rerun = Runner(events=EVENTS, benchmarks=BENCHES, cache_dir=cache_dir)
        regrid = rerun.run_grid(labels=("base", "aise+bmt"))
        assert regrid == grid
        assert rerun.cache.corrupt == 1
        assert rerun.cache.writes == 1  # the dropped record was rewritten
        assert sorted(os.listdir(cache_dir)) == records

    def test_key_depends_on_trace_config_and_model(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = spec_trace("art", EVENTS).digest()
        key = cache.key_for(digest, MachineConfig.preset("aise+bmt"), 0.7, 0.25)
        assert key == cache.key_for(digest, MachineConfig.preset("aise+bmt"), 0.7, 0.25)
        assert key != cache.key_for(
            digest, MachineConfig(encryption="aise", integrity="merkle"), 0.7, 0.25)
        assert key != cache.key_for(digest, MachineConfig.preset("aise+bmt"), 0.8, 0.25)
        assert key != cache.key_for("0" * 64, MachineConfig.preset("aise+bmt"), 0.7, 0.25)

    def test_model_fingerprint_is_stable_in_process(self):
        assert model_fingerprint() == model_fingerprint()

    def test_fingerprint_covers_scheme_package(self):
        from repro.evalx.parallel import timing_modules

        modules = timing_modules()
        assert "repro.schemes" in modules
        assert "repro.schemes.base" in modules
        assert "repro.schemes.encryption" in modules
        assert "repro.schemes.integrity" in modules

    def test_fingerprint_covers_tree_engine_modules(self):
        """Satellite invariant: the tree implementation is part of the
        timing model. Each integrity descriptor declares its engine
        modules (``tree_modules``) and the fingerprint folds them in, so
        an edit to the tree engine invalidates every cached sweep cell."""
        from repro.evalx.parallel import timing_modules

        assert "repro.integrity.merkle" in timing_modules()

    def test_tree_modules_reach_scheme_source_files(self):
        from repro.schemes import scheme_source_files

        assert any(f.endswith("integrity/merkle.py") for f in scheme_source_files())

    def test_registering_a_scheme_changes_the_fingerprint(self):
        """Satellite invariant: a new scheme descriptor — even one defined
        outside repro.schemes — must invalidate cached timing results."""
        from repro.schemes import EncryptionScheme, register_encryption, unregister_encryption

        class _FingerprintProbe(EncryptionScheme):
            key = "test_fingerprint_probe"

            def build_engine(self, machine, seed_audit=None):
                raise NotImplementedError

        before = model_fingerprint()
        register_encryption(_FingerprintProbe())
        try:
            assert model_fingerprint() != before
        finally:
            unregister_encryption("test_fingerprint_probe")
        assert model_fingerprint() == before


class _BrokenPool:
    """A ProcessPoolExecutor stand-in whose every future fails."""

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(RuntimeError("worker died"))
        return future


class TestDegradation:
    def test_worker_crash_falls_back_to_serial(self, monkeypatch):
        """Every cell whose worker dies is recomputed in-process, so a
        broken pool degrades throughput, never coverage or results."""
        serial = run_cells(
            [Cell(bench="art", label="aise+bmt", config=MachineConfig.preset("aise+bmt"))],
            events=EVENTS)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenPool)
        degraded = run_cells(
            [Cell(bench="art", label="aise+bmt", config=MachineConfig.preset("aise+bmt"))],
            events=EVENTS, workers=2)
        assert degraded == serial


class TestMetricsPlumbing:
    def test_metrics_attach_and_survive_the_disk_cache(self, tmp_path):
        runner = Runner(events=EVENTS, benchmarks=("art",),
                        cache_dir=str(tmp_path), metrics=True)
        result = runner.result("art", "aise+bmt")
        assert result.metrics  # snapshot attached to the cell
        assert result.metrics["sim.demand_misses"] == result.l2_misses

        # A fresh Runner over the same cache dir serves the snapshot from
        # disk, metrics and all.
        warm = Runner(events=EVENTS, benchmarks=("art",),
                      cache_dir=str(tmp_path), metrics=True)
        reread = warm.result("art", "aise+bmt")
        assert warm.cache.hits == 1
        assert reread == result
        assert reread.metrics == result.metrics

    def test_metrics_off_leaves_results_bare(self):
        result = Runner(events=EVENTS, benchmarks=("art",)).result(
            "art", "aise+bmt")
        assert result.metrics == {}

    def test_metrics_flag_does_not_disturb_plain_keys(self, tmp_path):
        """Cache-key stability: keys minted before the metrics flag
        existed must stay valid, so metrics=False (the default) adds
        nothing to the payload and metrics=True forks a separate key."""
        cache = ResultCache(str(tmp_path))
        digest = spec_trace("art", EVENTS).digest()
        plain = cache.key_for(digest, MachineConfig.preset("aise+bmt"), 0.7, 0.25)
        assert plain == cache.key_for(digest, MachineConfig.preset("aise+bmt"), 0.7, 0.25,
                                      metrics=False)
        assert plain != cache.key_for(digest, MachineConfig.preset("aise+bmt"), 0.7, 0.25,
                                      metrics=True)

    def test_pool_metrics_match_serial_metrics(self, tmp_path):
        cells = [Cell(bench=b, label="aise+bmt", config=MachineConfig.preset("aise+bmt"))
                 for b in BENCHES]
        serial = run_cells(cells, events=EVENTS, metrics=True)
        pooled = run_cells(cells, events=EVENTS, workers=2, metrics=True)
        for cell in cells:
            assert pooled[cell] == serial[cell]
            assert pooled[cell].metrics == serial[cell].metrics != {}


class TestStaleTmpRecovery:
    def test_init_sweeps_orphaned_tmp_files(self, tmp_path):
        """Regression: a worker killed between ``mkstemp`` and

        ``os.replace`` leaves an orphaned ``*.tmp`` in the cache root
        forever — nothing references it again. Init now sweeps them
        (they are by construction not yet renamed, hence dead) and
        counts the recovery in ``stale_tmp``.
        """
        cache_dir = str(tmp_path)
        grid = small_grid(cache_dir=cache_dir)
        records = sorted(os.listdir(cache_dir))
        # Fake two mid-write worker deaths.
        for name in ("tmpabc123.tmp", "tmpxyz789.tmp"):
            with open(os.path.join(cache_dir, name), "w") as f:
                f.write('{"key": "half-writ')
        recovered = ResultCache(cache_dir)
        assert recovered.stale_tmp == 2
        assert sorted(os.listdir(cache_dir)) == records  # only records left
        # The real records still serve: a warm re-run simulates nothing.
        rerun = Runner(events=EVENTS, benchmarks=BENCHES, cache_dir=cache_dir)
        assert rerun.run_grid(labels=("base", "aise+bmt")) == grid
        assert rerun.cache.misses == 0

    def test_fresh_cache_reports_no_stale_tmp(self, tmp_path):
        assert ResultCache(str(tmp_path / "new")).stale_tmp == 0
