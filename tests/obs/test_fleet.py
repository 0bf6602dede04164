"""The fleet observability pipeline: merge semantics, progress stream,
report invariants, Prometheus exposition, whole-sweep Chrome trace."""

import io
import json

import pytest

from repro.obs import fleet, prom
from repro.obs.chrome import validate_chrome_trace

HIST = {"edges": [50, 100], "counts": [1, 2, 3], "sum": 400.0, "count": 6}


def cell(bench="gcc", label="aise+bmt", source=fleet.SOURCE_POOL,
         engine="compiled", reason=None, **extra):
    record = {"bench": bench, "label": label, "mac_bits": None,
              "source": source, "engine": engine, "fallback_reason": reason,
              "metrics": {}, "phases": {}, "wall_s": 0.5, "cpu_s": 0.4,
              "t_start": 10.0, "t_end": 10.5, "worker": 1}
    record.update(extra)
    return record


class TestMergeSemantics:
    def test_counters_sum(self):
        agg = fleet.merge_snapshots([{"bus.transfers": 10}, {"bus.transfers": 5}])
        assert agg["bus.transfers"] == 15

    def test_rates_average(self):
        agg = fleet.merge_snapshots([{"l2.miss_rate": 0.2}, {"l2.miss_rate": 0.4}])
        assert agg["l2.miss_rate"] == pytest.approx(0.3)

    def test_occupancy_fractions_average(self):
        agg = fleet.merge_snapshots(
            [{"l2.occupancy.data": 0.25}, {"l2.occupancy.data": 0.75}]
        )
        assert agg["l2.occupancy.data"] == pytest.approx(0.5)

    def test_utilization_averages(self):
        assert fleet.merge_rule("bus.utilization", 0.5) == "mean"

    def test_dict_gauges_sum_keywise(self):
        agg = fleet.merge_snapshots(
            [{"bus.transfers_by_kind": {"data": 5, "mac": 2}},
             {"bus.transfers_by_kind": {"data": 1}}]
        )
        assert agg["bus.transfers_by_kind"] == {"data": 6, "mac": 2}

    def test_histograms_merge_elementwise(self):
        other = {"edges": [50, 100], "counts": [0, 1, 0], "sum": 90.0, "count": 1}
        agg = fleet.merge_snapshots(
            [{"sim.miss_latency": HIST}, {"sim.miss_latency": other}]
        )
        merged = agg["sim.miss_latency"]
        assert merged["counts"] == [1, 3, 3]
        assert merged["sum"] == 490.0
        assert merged["count"] == 7

    def test_mismatched_histogram_edges_refused(self):
        other = dict(HIST, edges=[10, 20])
        with pytest.raises(ValueError, match="edges differ"):
            fleet.merge_snapshots(
                [{"sim.miss_latency": HIST}, {"sim.miss_latency": other}]
            )

    def test_non_numeric_values_skipped(self):
        agg = fleet.merge_snapshots([{"sim.label": "aise+bmt", "sim.x": 1}])
        assert "sim.label" not in agg
        assert agg["sim.x"] == 1

    def test_output_is_sorted_and_json_ready(self):
        agg = fleet.merge_snapshots([{"b": 1, "a": {"k": 1}, "c": HIST}])
        assert list(agg) == sorted(agg)
        json.dumps(agg)


class TestProgressStream:
    def emit_sweep(self, sinks):
        s = fleet.ProgressStream(sinks)
        s.emit("sweep_begin", total=2, workers=2, events=1000)
        s.emit("cell_start", bench="gcc", label="base", worker=11)
        s.emit("cell_done", bench="gcc", label="base", done=1, total=2,
               source="pool", engine="compiled", wall_s=0.5,
               cells_per_sec=2.0, eta_s=0.5, cache_hit_ratio=0.0, worker=11)
        s.emit("cell_done", bench="mcf", label="base", done=2, total=2,
               source="cache", engine="cached", wall_s=0.0,
               cells_per_sec=2.0, eta_s=0.0, cache_hit_ratio=0.5, worker=0)
        s.emit("sweep_end", total=2, simulated=1, cached=1, wall_s=1.0)
        s.close()

    def test_records_validate_and_sequence(self):
        mem = fleet.MemoryProgressSink()
        self.emit_sweep([mem])
        assert fleet.validate_progress_records(mem.records) == []
        assert [r["seq"] for r in mem.records] == list(range(5))

    def test_jsonl_sink_streams_sorted_lines(self):
        buf = io.StringIO()
        sink = fleet.JsonlProgressSink(buf)
        self.emit_sweep([sink])
        lines = buf.getvalue().splitlines()
        assert sink.written == len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
        assert fleet.validate_progress_jsonl(lines) == []

    def test_jsonl_sink_owns_path(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = fleet.JsonlProgressSink(path)
        self.emit_sweep([sink])
        assert sink.stream.closed
        assert fleet.validate_progress_jsonl(
            path.read_text().splitlines()) == []

    def test_tty_sink_renders_and_terminates(self):
        buf = io.StringIO()
        self.emit_sweep([fleet.TtyProgressSink(buf)])
        text = buf.getvalue()
        assert "[1/2] gcc/base (compiled)" in text
        assert "1 simulated, 1 cached" in text
        assert text.endswith("\n")

    def test_validator_flags_broken_streams(self):
        mem = fleet.MemoryProgressSink()
        self.emit_sweep([mem])
        assert fleet.validate_progress_records([]) == ["empty stream"]
        # wrong sequence numbering
        reseq = [dict(r, seq=r["seq"] + 1) for r in mem.records]
        assert any("seq" in p for p in fleet.validate_progress_records(reseq))
        # missing required field
        broken = [dict(r) for r in mem.records]
        del broken[2]["eta_s"]
        assert any("eta_s" in p for p in fleet.validate_progress_records(broken))
        # does not open with sweep_begin
        assert any("sweep_begin" in p
                   for p in fleet.validate_progress_records(mem.records[1:]))
        # unknown engine on a done cell
        bad = [dict(r) for r in mem.records]
        bad[2]["engine"] = "warp"
        assert any("warp" in p for p in fleet.validate_progress_records(bad))
        # unknown source on a done cell (not one run_cells emits)
        bad = [dict(r) for r in mem.records]
        bad[2]["source"] = "warm"
        assert any("'warm'" in p for p in fleet.validate_progress_records(bad))


class TestFleetCollector:
    def collect(self):
        c = fleet.FleetCollector()
        c.begin(total=3, workers=2, events=1000)
        c.add_cell(cell(metrics={"bus.transfers": 10, "l2.miss_rate": 0.2}))
        c.add_cell(cell(bench="mcf", engine="reference", reason="warm_caches",
                        worker=2, metrics={"bus.transfers": 5, "l2.miss_rate": 0.4}))
        c.add_cell(cell(bench="art", source=fleet.SOURCE_CACHE,
                        engine="cached", metrics={}))
        c.absorb_cache({"hits": 1, "misses": 2})
        c.absorb_cache({"misses": 1, "worker_writes": 2})
        return c.finish(wall_s=2.0)

    def test_report_attribution_and_aggregate(self):
        report = self.collect()
        assert report.total == 3
        assert report.simulated == 2
        assert report.cached == 1
        assert report.engines == {"compiled": 1, "reference": 1, "cached": 1}
        assert sum(report.engines.values()) == report.total
        assert report.fallback_reasons == {"warm_caches": 1}
        assert report.aggregate["bus.transfers"] == 15
        assert report.aggregate["l2.miss_rate"] == pytest.approx(0.3)
        assert report.cache == {"hits": 1, "misses": 3, "worker_writes": 2}

    def test_worker_utilization(self):
        report = self.collect()
        assert set(report.workers) == {1, 2}
        for stats in report.workers.values():
            assert stats["cells"] == 1
            assert stats["utilization"] == pytest.approx(0.25)

    def test_payload_validates_and_serializes(self):
        payload = self.collect().to_payload()
        assert fleet.validate_fleet_payload(payload) == []
        json.dumps(payload)

    def test_validator_catches_unattributed_cells(self):
        payload = self.collect().to_payload()
        payload["cells"][0]["engine"] = "warp"
        assert fleet.validate_fleet_payload(payload)

    def test_validator_requires_fallback_reasons(self):
        c = fleet.FleetCollector()
        c.begin(1, 1, 1000)
        c.add_cell(cell(engine="reference", reason=None))
        payload = c.finish(1.0).to_payload()
        assert any("fallback_reason" in p
                   for p in fleet.validate_fleet_payload(payload))


class TestFleetChromeTrace:
    def test_one_lane_per_worker_plus_cache_lane(self):
        report = TestFleetCollector().collect()
        doc = fleet.fleet_chrome_trace(report)
        assert validate_chrome_trace(doc) == []
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        assert names == {"worker 1", "worker 2", "cache"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in spans} == {0, 1}
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1

    def test_accepts_payload_dict(self):
        payload = TestFleetCollector().collect().to_payload()
        assert validate_chrome_trace(fleet.fleet_chrome_trace(payload)) == []


class TestExtractSnapshot:
    def test_fleet_report_aggregate(self):
        report = TestFleetCollector().collect()
        assert fleet.extract_snapshot(report.to_payload()) == report.aggregate

    def test_traced_run_payload(self):
        doc = {"result": {"metrics": {"bus.transfers": 1}}}
        assert fleet.extract_snapshot(doc) == {"bus.transfers": 1}

    def test_bare_snapshot(self):
        snap = {"bus.transfers": 1, "l2.miss_rate": 0.5}
        assert fleet.extract_snapshot(snap) == snap

    def test_rejects_snapshotless_documents(self):
        with pytest.raises(ValueError):
            fleet.extract_snapshot({"cells": [1, 2]})


class TestPrometheusExposition:
    SNAP = {"bus.transfers": 15, "l2.miss_rate": 0.3,
            "bus.transfers_by_kind": {"data": 6, "mac": 2},
            "sim.miss_latency": HIST, "sim.label": "skipped"}

    def test_round_trip_validates(self):
        text = prom.prometheus_exposition(self.SNAP)
        assert prom.validate_prometheus_text(text) == []

    def test_name_sanitization_and_prefix(self):
        text = prom.prometheus_exposition(self.SNAP)
        assert "repro_bus_transfers 15" in text
        assert "." not in text.split("# TYPE ")[1].split()[0]

    def test_labeled_dict_samples(self):
        text = prom.prometheus_exposition(self.SNAP, labels={"sweep": "fig6"})
        assert 'repro_bus_transfers_by_kind{kind="data",sweep="fig6"} 6' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        text = prom.prometheus_exposition(self.SNAP)
        assert 'repro_sim_miss_latency_bucket{le="50"} 1' in text
        assert 'repro_sim_miss_latency_bucket{le="100"} 3' in text
        assert 'repro_sim_miss_latency_bucket{le="+Inf"} 6' in text
        assert "repro_sim_miss_latency_count 6" in text

    def test_non_numeric_skipped(self):
        assert "sim_label" not in prom.prometheus_exposition(self.SNAP)

    def test_validator_flags_bad_expositions(self):
        assert prom.validate_prometheus_text("9bad{ 1\n")
        assert prom.validate_prometheus_text("metric notanumber\n")
        # non-cumulative buckets
        bad = ('m_bucket{le="50"} 5\nm_bucket{le="100"} 3\n'
               'm_bucket{le="+Inf"} 6\n')
        assert any("cumulative" in p
                   for p in prom.validate_prometheus_text(bad))
        # missing +Inf
        assert any("+Inf" in p for p in prom.validate_prometheus_text(
            'm_bucket{le="50"} 1\n'))


class TestValidatorCli:
    def test_valid_artifacts_pass(self, tmp_path, capsys):
        report = tmp_path / "fleet.json"
        report.write_text(json.dumps(TestFleetCollector().collect().to_payload()))
        progress = tmp_path / "progress.jsonl"
        mem = fleet.MemoryProgressSink()
        TestProgressStream().emit_sweep([mem])
        progress.write_text(
            "".join(json.dumps(r) + "\n" for r in mem.records))
        assert fleet.main(["--report", str(report),
                           "--progress", str(progress)]) == 0
        out = capsys.readouterr().out
        assert "valid fleet report" in out
        assert "valid progress stream" in out

    def test_invalid_report_fails(self, tmp_path):
        report = tmp_path / "fleet.json"
        payload = TestFleetCollector().collect().to_payload()
        payload["engines"] = {"compiled": 3}
        report.write_text(json.dumps(payload))
        assert fleet.main(["--report", str(report)]) == 1
