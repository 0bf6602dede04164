"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestStorageCommand:
    def test_default_prints_headline_number(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "21.55%" in out

    def test_custom_configuration(self, capsys):
        assert main(["storage", "--encryption", "global64", "--integrity", "merkle",
                     "--mac-bits", "256"]) == 0
        out = capsys.readouterr().out
        assert "55.71%" in out

    def test_address_seeded_counters_match_the_layout(self, capsys):
        """32-bit per-block counters: 4B per 64B block, 64MB per GB."""
        assert main(["storage", "--encryption", "phys_addr", "--data-mb", "1024"]) == 0
        out = capsys.readouterr().out
        counters = next(line for line in out.splitlines() if line.startswith("counters"))
        assert "64.00 MB" in counters


class TestAttacksCommand:
    def test_bmt_detects_all(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert out.count("DETECTED") == 4
        assert "MISSED" not in out

    def test_mac_only_misses_replay(self, capsys):
        assert main(["attacks", "--integrity", "mac_only"]) == 0
        out = capsys.readouterr().out
        assert "MISSED" in out


class TestSweepCommand:
    ARGS = ["sweep", "--events", "2000", "--benchmarks", "gzip", "eon",
            "--configs", "base", "aise+bmt"]

    def test_writes_deterministic_json(self, tmp_path):
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        assert main([*self.ARGS, "--out", str(serial)]) == 0
        assert main([*self.ARGS, "--workers", "2",
                     "--cache", str(tmp_path / "cache"), "--out", str(pooled)]) == 0
        # The whole point: parallel output byte-equals serial output.
        assert pooled.read_text() == serial.read_text()
        import json

        cells = json.loads(serial.read_text())["cells"]
        assert len(cells) == 4
        assert "gzip/aise+bmt/default" in cells

    def test_cached_rerun_matches(self, tmp_path):
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        cache = str(tmp_path / "cache")
        assert main([*self.ARGS, "--cache", cache, "--out", str(out1)]) == 0
        assert main([*self.ARGS, "--cache", cache, "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_rejects_unknown_config(self, capsys):
        assert main(["sweep", "--configs", "quantum"]) == 2

    def test_rejects_unknown_benchmark(self, capsys):
        assert main(["sweep", "--benchmarks", "doom3"]) == 2

    def test_live_and_fleet_leave_output_byte_identical(self, tmp_path):
        import json

        from repro.obs import fleet

        plain = tmp_path / "plain.json"
        observed = tmp_path / "observed.json"
        progress = tmp_path / "progress.jsonl"
        report = tmp_path / "fleet.json"
        trace = tmp_path / "fleet-trace.json"
        assert main([*self.ARGS, "--out", str(plain)]) == 0
        assert main([*self.ARGS, "--live", "--live-jsonl", str(progress),
                     "--fleet", str(report), "--fleet-chrome", str(trace),
                     "--out", str(observed)]) == 0
        assert observed.read_text() == plain.read_text()

        lines = progress.read_text().splitlines()
        assert fleet.validate_progress_jsonl(lines) == []
        doc = json.loads(report.read_text())
        assert fleet.validate_fleet_payload(doc) == []
        assert doc["total"] == 4

        from repro.obs.chrome import validate_chrome_trace

        assert validate_chrome_trace(json.loads(trace.read_text())) == []


class TestMetricsCommand:
    def fleet_report(self, tmp_path):
        report = tmp_path / "fleet.json"
        assert main(["sweep", "--events", "2000", "--benchmarks", "gzip",
                     "--configs", "base", "aise+bmt",
                     "--fleet", str(report),
                     "--out", str(tmp_path / "sweep.json")]) == 0
        return report

    def test_prometheus_export_validates(self, tmp_path):
        from repro.obs.prom import validate_prometheus_text

        report = self.fleet_report(tmp_path)
        out = tmp_path / "metrics.prom"
        assert main(["metrics", str(report), "--check", "--out", str(out)]) == 0
        text = out.read_text()
        assert validate_prometheus_text(text) == []
        assert "repro_bus_transfers" in text

    def test_json_format(self, tmp_path, capsys):
        import json

        report = self.fleet_report(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(report), "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "bus.transfers" in snap

    def test_rejects_unreadable_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["metrics", str(bad)]) == 2


class TestSimulateCommand:
    def test_runs_and_reports(self, capsys):
        assert main(["simulate", "--benchmark", "gzip", "--events", "5000"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out
        assert "L2 miss rate" in out

    def test_rejects_unknown_benchmark(self, capsys):
        assert main(["simulate", "--benchmark", "doom3"]) == 2


class TestReportCommand:
    def test_subset_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["report", "--events", "3000", "--figures", "9",
                     "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "Table 2" in text
        assert "Figure 9" in text
        assert "Figure 6" not in text  # filtered out


class TestArgumentErrors:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestReportDataExport:
    def test_data_dir_exports_json_and_csv(self, tmp_path):
        import json

        data_dir = tmp_path / "data"
        assert main(["report", "--events", "2500", "--figures", "9",
                     "--out", str(tmp_path / "r.txt"),
                     "--data-dir", str(data_dir)]) == 0
        fig = json.loads((data_dir / "figure9.json").read_text())
        assert "aise+bmt" in fig["series"]
        table2_csv = (data_dir / "table2.csv").read_text()
        assert "21.55" in table2_csv
        assert not (data_dir / "figure6.json").exists()  # filtered out


class TestTraceCommand:
    def trace_args(self, tmp_path, stem):
        return ["trace", "stream", "--config", "aise+bmt",
                "--events", "6000", "--interval", "512",
                "--out", str(tmp_path / f"{stem}.json"),
                "--jsonl", str(tmp_path / f"{stem}.jsonl"),
                "--snapshots", str(tmp_path / f"{stem}-snap.json")]

    def test_emits_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.chrome import validate_chrome_trace

        assert main(self.trace_args(tmp_path, "t")) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "cycles" in out
        doc = json.loads((tmp_path / "t.json").read_text())
        assert validate_chrome_trace(doc) == []
        assert any(e.get("name") == "l2_miss" for e in doc["traceEvents"])

    def test_reruns_are_byte_identical(self, tmp_path):
        assert main(self.trace_args(tmp_path, "a")) == 0
        assert main(self.trace_args(tmp_path, "b")) == 0
        for suffix in (".json", ".jsonl", "-snap.json"):
            first = (tmp_path / f"a{suffix}").read_bytes()
            second = (tmp_path / f"b{suffix}").read_bytes()
            assert first == second, suffix

    def test_snapshots_carry_samples_and_result(self, tmp_path):
        import json

        assert main(self.trace_args(tmp_path, "s")) == 0
        snap = json.loads((tmp_path / "s-snap.json").read_text())
        assert snap["workload"] == "stream"
        assert snap["interval"] == 512
        assert snap["warmup"] == 0.25  # the TraceRequest default
        assert len(snap["samples"]) >= 2
        final = snap["samples"][-1]
        assert final["sim.demand_misses"] == snap["result"]["l2_misses"]

    def test_spec_workloads_accepted(self, tmp_path):
        assert main(["trace", "gzip", "--events", "2000",
                     "--out", str(tmp_path / "g.json")]) == 0

    def test_rejects_unknown_workload(self, tmp_path):
        assert main(["trace", "doom3",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_rejects_unknown_config(self, tmp_path):
        assert main(["trace", "stream", "--config", "quantum",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_verbose_flag_accepted(self, tmp_path):
        assert main(["-v", "trace", "stream", "--events", "2000",
                     "--out", str(tmp_path / "v.json")]) == 0

    def test_disabled_mode_left_behind(self, tmp_path):
        import repro.obs as obs

        assert main(self.trace_args(tmp_path, "d")) == 0
        assert not obs.enabled()  # tracing is scoped to the command


class TestPrecompileCommand:
    def test_reports_pattern_mix(self, capsys):
        assert main(["precompile", "stream", "--events", "2000"]) == 0
        out = capsys.readouterr().out
        assert "workload : stream" in out
        assert "patterns" in out

    def test_json_envelope(self, capsys):
        import json

        assert main(["precompile", "stream", "--events", "2000",
                     "--json"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["payload_version"] == 1
        assert wire["kind"] == "ok"
        assert wire["body"]["op"] == "precompile"

    def test_rejects_unknown_workload(self, capsys):
        assert main(["precompile", "nope"]) == 2


class TestJsonEnvelopes:
    def test_simulate_json_is_a_versioned_envelope(self, capsys):
        import json

        assert main(["simulate", "--benchmark", "gzip", "--events", "2000",
                     "--json"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["kind"] == "result"
        assert wire["payload_version"] == 1
        assert wire["body"]["result"]["cycles"] > 0

    def test_sweep_json_body_is_the_payload(self, capsys):
        import json

        assert main(["sweep", "--events", "2000", "--benchmarks", "gzip",
                     "--configs", "base", "--json"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["kind"] == "sweep"
        assert "gzip/base/default" in wire["body"]["cells"]

    def test_cache_dir_spelling_and_alias_agree(self, tmp_path):
        args = ["sweep", "--events", "2000", "--benchmarks", "gzip",
                "--configs", "base"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--cache-dir", str(tmp_path / "c1"),
                     "--out", str(a)]) == 0
        assert main([*args, "--cache", str(tmp_path / "c2"),
                     "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestServeSubmitCommands:
    def test_submit_round_trip_against_live_server(self, capsys, tmp_path):
        import json

        from repro.service import serve_background

        with serve_background() as handle:
            port = ["--port", str(handle.port)]
            assert main(["submit", "status", *port]) == 0
            wire = json.loads(capsys.readouterr().out)
            assert wire["kind"] == "status"

            out = tmp_path / "cells.json"
            assert main(["submit", "sweep", *port, "--benchmarks", "gzip",
                         "--configs", "base", "--events", "2000",
                         "--out", str(out)]) == 0
            assert main(["sweep", "--events", "2000", "--benchmarks", "gzip",
                         "--configs", "base",
                         "--out", str(tmp_path / "cold.json")]) == 0
            # The service-written file byte-equals the cold CLI sweep.
            assert out.read_text() == (tmp_path / "cold.json").read_text()

    def test_submit_against_dead_port_fails_cleanly(self):
        assert main(["submit", "status", "--port", "1"]) == 2

    def test_unwritable_out_is_an_output_failure(self, tmp_path, caplog):
        """The service answered; only the write failed, and the log says
        which path, not that the service was unreachable."""
        import logging

        from repro.service import serve_background

        out = tmp_path / "missing" / "s.json"
        cli_log = logging.getLogger("repro.cli")  # does not propagate
        cli_log.addHandler(caplog.handler)
        try:
            with serve_background() as handle:
                code = main(["submit", "sweep", "--port", str(handle.port),
                             "--benchmarks", "gzip", "--configs", "base",
                             "--events", "2000", "--out", str(out)])
        finally:
            cli_log.removeHandler(caplog.handler)
        assert code == 1
        assert f"cannot write {out}" in caplog.text
        assert "cannot reach service" not in caplog.text
        assert not out.exists()

    def test_submit_simulate_label_reaches_the_service(self, capsys):
        import json

        from repro.service import serve_background

        with serve_background() as handle:
            assert main(["submit", "simulate", "--port", str(handle.port),
                         "--events", "2000", "--label", "L"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["body"]["result"]["config_label"] == "L"

    @pytest.mark.parametrize("argv", [
        ["submit", "status", "--workload", "x"],
        ["submit", "trace", "--overlap", "0.5"],
    ], ids=" ".join)
    def test_flag_of_another_op_is_a_usage_error(self, argv):
        # Rejected by argparse before any connection is tried, as the
        # service rejects a request body with an unknown knob.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


SUBMIT_OPS = ["simulate", "sweep", "trace", "precompile", "presets",
              "status", "shutdown"]


class TestHelp:
    @pytest.mark.parametrize("argv", [
        *([command] for command in (
            "report", "sweep", "simulate", "trace", "metrics", "precompile",
            "serve", "submit", "attacks", "storage", "analyze")),
        *(["submit", op] for op in SUBMIT_OPS),
    ], ids=" ".join)
    def test_every_command_has_help(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
