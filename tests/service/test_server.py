"""The sweep service over a real socket.

The headline contract: anything the service returns is byte-identical
to what a cold, in-process facade call produces — the server only ever
amortizes *work*, never changes *results*. Plus the service mechanics:
LRU/disk tiers attribute their hits, tenants interleave safely,
subscribers get validatable per-job progress streams, and malformed
requests come back as error envelopes instead of dropped connections.
"""

import asyncio
import json
import threading

import pytest

from repro import api
from repro.api import schema
from repro.obs.fleet import MemoryProgressSink, validate_progress_records
from repro.service import ServiceError, serve_background
from repro.service.server import _READ_LIMIT, _read_line

EVENTS = 2_000


@pytest.fixture(scope="module")
def server():
    with serve_background() as handle:
        yield handle


class TestSimulate:
    def test_matches_cold_facade_call(self, server):
        with server.client() as client:
            body = client.simulate(workload="gzip", config="aise+bmt",
                                   events=EVENTS)
        cold = api.simulate("gzip", "aise+bmt", events=EVENTS,
                            label="aise+bmt")
        assert body["result"] == cold.to_dict()

    def test_repeat_request_serves_from_memory(self, server):
        knobs = dict(workload="eon", config="base", events=EVENTS)
        with server.client() as client:
            first = client.simulate(**knobs)
            second = client.simulate(**knobs)
        assert second["result"] == first["result"]
        assert second["served_from"] == "lru"

    def test_metrics_knob_changes_key_not_result(self, server):
        with server.client() as client:
            plain = client.simulate(workload="gzip", config="base",
                                    events=EVENTS)
            metered = client.simulate(workload="gzip", config="base",
                                      events=EVENTS, metrics=True)
        assert "metrics" not in plain["result"]
        assert metered["result"]["metrics"]
        stripped = dict(metered["result"])
        del stripped["metrics"]
        assert stripped == plain["result"]


class TestLabels:
    def test_each_label_of_one_config_gets_its_own_result(self, tmp_path):
        """The cache key leaves the label out; the answer must not."""
        knobs = dict(workload="gzip", config="aise+bmt", events=EVENTS)
        with serve_background(cache_dir=str(tmp_path)) as handle:
            with handle.client() as client:
                a = client.simulate(label="a", **knobs)
                b = client.simulate(label="b", **knobs)
        with serve_background(cache_dir=str(tmp_path)) as handle:
            with handle.client() as client:
                c = client.simulate(label="c", **knobs)
        assert (b["served_from"], c["served_from"]) == ("lru", "disk")
        for body, label in ((a, "a"), (b, "b"), (c, "c")):
            assert body["result"] == api.simulate(
                "gzip", "aise+bmt", events=EVENTS, label=label).to_dict()


class TestSweepByteIdentity:
    KNOBS = dict(configs=["base", "aise+bmt"], benchmarks=["gzip"],
                 events=EVENTS)

    def test_warm_path_body_equals_cold_payload(self, server):
        with server.client() as client:
            body = client.sweep(**self.KNOBS)
        cold = api.sweep(**self.KNOBS).to_payload()
        assert json.dumps(body, indent=2, sort_keys=True) == \
            json.dumps(cold, indent=2, sort_keys=True)

    def test_pool_path_body_equals_cold_payload(self, server):
        with server.client() as client:
            body = client.sweep(workers=2, **self.KNOBS)
        cold = api.sweep(**self.KNOBS).to_payload()
        assert json.dumps(body, indent=2, sort_keys=True) == \
            json.dumps(cold, indent=2, sort_keys=True)

    def test_sweep_body_carries_no_meta_keys(self, server):
        with server.client() as client:
            body = client.sweep(**self.KNOBS)
        assert set(body) == {"benchmarks", "cells", "configs", "events"}


class TestSweepBackfill:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_swept_cells_serve_simulate_from_memory(self, workers):
        with serve_background() as handle:
            with handle.client() as client:
                before = client.status()["served"]["pool"]
                body = client.sweep(configs=["base", "aise+bmt"],
                                    benchmarks=["gzip"], events=EVENTS,
                                    workers=workers)
                after = client.status()["served"]["pool"]
                answer = client.simulate(workload="gzip", config="aise+bmt",
                                         events=EVENTS)
        assert after - before == len(body["cells"]) == 2
        assert answer["served_from"] == "lru"
        assert answer["result"] == body["cells"]["gzip/aise+bmt/default"]


class TestTenancy:
    def test_interleaved_tenants_get_identical_cells(self, server):
        results = {}

        def run(tenant):
            with server.client(tenant=tenant) as client:
                results[tenant] = client.sweep(
                    configs=["aise+bmt"], benchmarks=["eon"], events=EVENTS)

        threads = [threading.Thread(target=run, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["alice"] == results["bob"]

    def test_concurrent_identical_cells_compute_once(self, tmp_path):
        with serve_background(cache_dir=str(tmp_path)) as handle:
            def run():
                with handle.client() as client:
                    client.simulate(workload="gzip", config="aise+bmt",
                                    events=EVENTS)

            threads = [threading.Thread(target=run) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with handle.client() as client:
                status = client.status()
        # Exactly-once per key: one disk write, however many askers.
        assert status["disk"]["writes"] == 1
        assert sum(status["served"][k] for k in
                   ("lru", "disk", "warm", "cold")) == 6


class TestProgressEvents:
    def test_subscribed_sweep_stream_validates(self, server):
        with server.client(tenant="watcher") as client:
            client.subscribe()
            body = client.sweep(configs=["base"], benchmarks=["gzip", "eon"],
                                events=EVENTS)
            client.status()  # drain any straggling events first
        assert body["cells"]
        jobs = {event["job"] for event in client.events}
        assert len(jobs) == 1
        records = client.progress_records(jobs.pop())
        assert [r["event"] for r in records][0] == "sweep_begin"
        assert [r["event"] for r in records][-1] == "sweep_end"
        assert validate_progress_records(records) == []

    def test_serial_sweep_stream_matches_facade(self, server):
        """A served ``workers=1`` sweep streams what ``api.sweep`` streams:
        one engine, so the same records in the same order."""
        knobs = dict(configs=["base", "aise+bmt"], benchmarks=["gzip", "eon"],
                     events=EVENTS)
        with server.client(tenant="mirror") as client:
            client.subscribe()
            client.sweep(**knobs)
            client.status()
        jobs = {event["job"] for event in client.events}
        assert len(jobs) == 1
        served = client.progress_records(jobs.pop())
        sink = MemoryProgressSink()
        api.sweep(live_sinks=[sink], **knobs)
        fields = ("event", "bench", "label", "source", "done", "total")

        def shape(records):
            return [tuple(r.get(f) for f in fields) for r in records]

        assert shape(served) == shape(sink.records)
        assert {r["source"] for r in served if r["event"] == "cell_done"} \
            == {"serial"}

    def test_unsubscribed_clients_see_no_events(self, server):
        with server.client() as client:
            client.sweep(configs=["base"], benchmarks=["gzip"], events=EVENTS)
            assert client.events == []


class TestErrors:
    def test_unknown_config_is_an_error_envelope(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError, match="unknown"):
                client.sweep(configs=["warpdrive"], benchmarks=["gzip"],
                             events=EVENTS)
            # The connection survives the error.
            assert client.status()["requests"] > 0

    def test_unknown_benchmark_matches_facade_message(self, server):
        try:
            api.sweep(configs=["base"], benchmarks=["nope"], events=EVENTS)
        except ValueError as exc:
            facade_message = str(exc)
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.sweep(configs=["base"], benchmarks=["nope"],
                             events=EVENTS)
        assert str(err.value) == facade_message

    def test_malformed_line_is_an_error_envelope(self, server):
        with server.client() as client:
            client.sock.sendall(b"this is not json\n")
            envelope = client._recv()
        assert envelope.kind == "error"

    def test_oversized_line_is_one_error_envelope(self, server):
        """A line over the read limit is skipped whole and answered with
        one error; the next request on the same socket is served."""
        with server.client() as client:
            errors = client.status()["errors"]
            client.sock.sendall(b"x" * (_READ_LIMIT + 1) + b"\n")
            envelope = client._recv()
            assert envelope.kind == "error"
            assert str(_READ_LIMIT) in envelope.body["error"]
            status = client.status()
        assert status["errors"] == errors + 1

    @pytest.mark.parametrize("head, tail", [
        (b"x" * 40 + b"\nnext\n", b""),        # newline already buffered
        (b"x" * 40, b"x" * 40 + b"\nnext\n"),  # newline arrives later
    ], ids=["buffered", "late"])
    def test_read_line_skips_a_whole_oversized_line(self, head, tail):
        async def read_all():
            reader = asyncio.StreamReader(limit=16)
            reader.feed_data(head)
            first = asyncio.ensure_future(_read_line(reader))
            await asyncio.sleep(0)
            reader.feed_data(tail)
            reader.feed_eof()
            return [await first, await _read_line(reader),
                    await _read_line(reader)]

        assert asyncio.run(read_all()) == [None, b"next\n", b""]


class TestOtherOps:
    def test_presets_match_facade(self, server):
        with server.client() as client:
            assert client.presets() == list(api.preset_names())
            full = client.presets(full=True)
        assert full == list(api.preset_names(full=True))
        assert "aise+bmt_lazy" in full

    def test_trace_matches_facade(self, server):
        with server.client() as client:
            body = client.trace(workload="stream", events=EVENTS,
                                interval=512)
        cold = api.trace("stream", events=EVENTS, interval=512).to_payload()
        assert body["result"] == cold["result"]
        assert body["samples"] == cold["samples"]
        assert body["chrome"] == cold["chrome"]

    def test_precompile_reports_shared_lowering(self, server):
        knobs = dict(workload="chase", config="aise+bmt", events=EVENTS)
        with server.client() as client:
            first = client.precompile(**knobs)
            second = client.precompile(**knobs)
        assert first["patterns"]
        # The TraceStore shares one Trace instance, so the second
        # request finds the first request's lowering memoized.
        assert second["cached"] is True

    def test_precompile_of_a_deferred_tree_is_an_error_envelope(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError, match="deferred_updates"):
                client.precompile(workload="chase", config="aise+bmt_lazy",
                                  events=EVENTS)
            # The connection survives the error.
            assert client.status()["errors"] >= 1

    def test_status_counts_are_coherent(self, server):
        with server.client() as client:
            status = client.status()
        assert status["requests"] >= 1
        assert status["uptime_s"] > 0
        assert set(status["served"]) == {"lru", "disk", "warm", "cold",
                                         "pool"}
        assert status["lru"]["size"] <= status["lru"]["capacity"]


class TestShutdown:
    def test_shutdown_request_stops_the_server(self):
        handle = serve_background()
        with handle.client() as client:
            client.shutdown()
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()
