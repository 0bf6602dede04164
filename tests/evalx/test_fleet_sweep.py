"""Fleet capture over real sweeps: the acceptance invariants.

* aggregated sum-kind counters equal the sum of serial per-cell
  snapshots,
* engine-selection counters account for 100% of cells, each attributed
  to exactly one engine (with a fallback reason when not compiled),
* the result payload is byte-identical with fleet capture and the live
  stream enabled or disabled — observation never perturbs results,
* worker-side ResultCache counters surface on the parent cache.
"""

import json

from repro import api
from repro.obs import fleet

BENCHES = ("gcc", "mcf")
CONFIGS = ("base", "aise+bmt")
EVENTS = 3000


def payload_text(run):
    return json.dumps(run.to_payload(), sort_keys=True)


class TestSerialFleetSweep:
    def sweep(self, **kw):
        return api.sweep(CONFIGS, BENCHES, events=EVENTS, **kw)

    def test_observed_payload_byte_identical_to_plain(self):
        plain = self.sweep()
        mem = fleet.MemoryProgressSink()
        observed = self.sweep(fleet=True, live_sinks=[mem])
        assert payload_text(observed) == payload_text(plain)
        assert fleet.validate_progress_records(mem.records) == []

    def test_engines_account_for_every_cell(self):
        report = self.sweep(fleet=True).fleet
        assert report.total == len(BENCHES) * len(CONFIGS)
        assert sum(report.engines.values()) == report.total
        assert fleet.validate_fleet_payload(report.to_payload()) == []
        for record in report.cells:
            assert record["engine"] in fleet.CELL_ENGINES
            if record["engine"] == "reference":
                assert record["fallback_reason"]
            elif record["engine"] == "compiled":
                assert not record["fallback_reason"]

    def test_aggregate_equals_sum_of_serial_cell_snapshots(self):
        report = self.sweep(fleet=True).fleet
        for metric in ("bus.transfers", "l2.hits", "sim.demand_accesses"):
            expected = sum(
                api.simulate(bench, label, events=EVENTS, label=label,
                             metrics=True).metrics[metric]
                for bench in BENCHES for label in CONFIGS
            )
            assert report.aggregate[metric] == expected, metric

    def test_report_is_json_serializable(self):
        report = self.sweep(fleet=True).fleet
        json.dumps(report.to_payload())


class TestPooledFleetSweep:
    def test_pool_cache_and_live_stream(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plain = api.sweep(CONFIGS, BENCHES, events=EVENTS)
        mem = fleet.MemoryProgressSink()
        run = api.sweep(CONFIGS, BENCHES, events=EVENTS, workers=2,
                        cache_dir=cache_dir, fleet=True, live_sinks=[mem])
        assert payload_text(run) == payload_text(plain)
        assert fleet.validate_progress_records(mem.records) == []
        report = run.fleet
        assert fleet.validate_fleet_payload(report.to_payload()) == []
        assert sum(report.engines.values()) == report.total == 4

        # Worker-side cache movement surfaced on the parent cache object
        # and in the report's cache block.
        cache = run.runner.cache
        assert cache.worker_writes == 4
        assert cache.worker_misses == 4
        assert report.cache["worker_writes"] == 4
        assert report.cache["misses"] == 4  # the parent's own filter pass

        # cell_start records came over the worker queue.
        starts = [r for r in mem.records if r["event"] == "cell_start"]
        assert len(starts) == 4

        # Second sweep: every cell served from the parent's cache check,
        # attributed to the "cached" pseudo-engine; payload unchanged.
        mem2 = fleet.MemoryProgressSink()
        rerun = api.sweep(CONFIGS, BENCHES, events=EVENTS, workers=2,
                          cache_dir=cache_dir, fleet=True, live_sinks=[mem2])
        assert payload_text(rerun) == payload_text(plain)
        report2 = rerun.fleet
        assert report2.engines == {"cached": 4}
        assert report2.cache["hits"] == 4
        assert fleet.validate_fleet_payload(report2.to_payload()) == []
        assert fleet.validate_progress_records(mem2.records) == []

    def test_fleet_chrome_trace_has_worker_lanes(self, tmp_path):
        from repro.obs.chrome import validate_chrome_trace

        run = api.sweep(CONFIGS, BENCHES, events=EVENTS, workers=2, fleet=True)
        doc = fleet.fleet_chrome_trace(run.fleet)
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 4
