"""The versioned request/response envelope (repro.api.schema).

The schema is the service's compatibility contract: every envelope
round-trips through the wire encoding losslessly, version and shape
violations fail loudly at the boundary, and the one-release legacy
shim still reads pre-envelope payloads (with a DeprecationWarning).
"""

import json
import warnings

import pytest

from repro.api import schema


class TestEnvelopeRoundTrip:
    def test_wire_round_trip(self):
        env = schema.ok_envelope(op="ping", value=3)
        again = schema.wire_decode(schema.wire_encode(env))
        assert again == env
        assert again.payload_version == schema.PAYLOAD_VERSION

    def test_wire_encoding_is_one_line_sorted(self):
        text = schema.wire_encode(schema.ok_envelope(b=1, a=2))
        assert "\n" not in text
        assert text.index('"a"') < text.index('"b"')

    def test_rejects_wrong_version(self):
        wire = schema.ok_envelope().to_wire()
        wire["payload_version"] = schema.PAYLOAD_VERSION + 1
        with pytest.raises(schema.SchemaError):
            schema.Envelope.from_wire(wire)

    def test_rejects_missing_kind_and_body(self):
        with pytest.raises(schema.SchemaError):
            schema.Envelope.from_wire({"payload_version": schema.PAYLOAD_VERSION})

    def test_rejects_non_json_line(self):
        with pytest.raises(schema.SchemaError):
            schema.wire_decode("not json\n")


class TestRequests:
    ALL_REQUESTS = [
        schema.HelloRequest(tenant="alice"),
        schema.SimulateRequest(workload="art", config="base", events=2000),
        schema.SweepRequest(configs=("base",), benchmarks=("art", "mcf"),
                            events=2000, mac_bits=(64, None), workers=2),
        schema.TraceRequest(workload="stream", events=4000, interval=512),
        schema.PrecompileRequest(workload="chase"),
        schema.PresetsRequest(full=True),
        schema.StatusRequest(),
        schema.SubscribeRequest(progress=False),
        schema.ShutdownRequest(),
    ]

    def test_every_request_round_trips(self):
        for request in self.ALL_REQUESTS:
            wire = request.to_wire().to_wire()
            again = schema.request_from_wire(schema.Envelope.from_wire(wire))
            assert again == request, request.kind

    def test_wire_form_is_json_serializable(self):
        for request in self.ALL_REQUESTS:
            json.dumps(request.to_wire().to_wire())

    def test_unknown_body_keys_rejected(self):
        wire = schema.SimulateRequest().to_wire().to_wire()
        wire["body"]["surprise"] = 1
        with pytest.raises(schema.SchemaError):
            schema.request_from_wire(schema.Envelope.from_wire(wire))

    def test_unknown_kind_rejected(self):
        env = schema.Envelope(kind="frobnicate", body={})
        with pytest.raises(schema.SchemaError):
            schema.request_from_wire(env)

    def test_sequences_normalize_to_tuples(self):
        request = schema.SweepRequest(configs=["base"], benchmarks=["art"],
                                      mac_bits=[64])
        assert request.configs == ("base",)
        assert request.mac_bits == (64,)


class TestResponseBuilders:
    def test_result_envelope_separates_meta(self):
        env = schema.result_envelope({"cycles": 10.0}, served_from="lru", job=3)
        assert env.kind == "result"
        assert env.body["result"] == {"cycles": 10.0}
        assert env.body["served_from"] == "lru"

    def test_meta_collision_rejected(self):
        payload = {"cells": {}, "configs": [], "benchmarks": [], "events": 1}
        with pytest.raises(schema.SchemaError):
            schema.sweep_envelope(payload, events=2)

    def test_sweep_body_is_the_bare_payload(self):
        payload = {"cells": {}, "configs": [], "benchmarks": [], "events": 1}
        env = schema.sweep_envelope(payload)
        # Byte-identity contract: the body IS SweepRun.to_payload() —
        # no meta keys mixed in.
        assert env.body == payload

    def test_event_envelope_tags_job_and_tenant(self):
        env = schema.event_envelope({"event": "cell_done"}, job=2, tenant="bob")
        assert env.body == {"record": {"event": "cell_done"}, "job": 2,
                            "tenant": "bob"}

    def test_error_envelope(self):
        env = schema.error_envelope("boom", op="sweep")
        assert env.kind == "error"
        assert env.body["error"] == "boom"


class TestLegacyShim:
    """Bare pre-envelope payloads are no longer read: envelopes only."""

    @pytest.mark.parametrize("legacy", [
        {"cells": {"art/base/default": {"cycles": 1.0}}, "configs": ["base"],
         "benchmarks": ["art"], "events": 2000, "sweep": True},
        {"aggregate": {}},
        {"cycles": 1.0},
    ], ids=["sweep", "fleet", "result"])
    def test_legacy_bare_payload_is_rejected(self, legacy):
        with pytest.raises(schema.SchemaError):
            schema.Envelope.from_wire(legacy)

    def test_enveloped_payload_reads_without_warning(self):
        env = schema.sweep_envelope({"cells": {}, "configs": [],
                                     "benchmarks": [], "events": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = schema.Envelope.from_wire(env.to_wire())
        assert again == env

    def test_unrecognized_legacy_shape_rejected(self):
        with pytest.raises(schema.SchemaError):
            schema.Envelope.from_wire({"mystery": 1})
