"""repro.api.schema: the versioned request/response envelope.

Every payload the reproduction emits across a process boundary — the
service wire protocol (:mod:`repro.service`), the CLI ``--json``
outputs, fleet reports shipped to dashboards — travels inside one
envelope shape::

    {"payload_version": 1, "kind": "<kind>", "body": {...}}

``payload_version`` is the schema generation (bumped only for an
incompatible body change), ``kind`` names the body's type, and ``body``
is the *unchanged* legacy payload for the established kinds — an
enveloped sweep body is byte-for-byte ``SweepRun.to_payload()``, an
enveloped result body is ``SimResult.to_dict()``, an enveloped fleet
body is ``FleetReport.to_payload()``. The envelope adds provenance
around those payloads without perturbing them, so the golden-diff
machinery keeps pinning the same bytes.

Requests are typed dataclasses (:class:`SimulateRequest`,
:class:`SweepRequest`, ...) with ``to_wire``/``from_wire`` that
round-trip exactly; the service dispatches on ``kind`` through
:data:`REQUEST_TYPES`, and :func:`add_request_args` derives the
``python -m repro`` flags from their fields. Responses are built by
the ``*_envelope`` helpers so every emitter spells the same kinds.

Readers take envelopes only (:meth:`Envelope.from_wire`); the old bare
shapes (a sweep payload with a top-level ``cells``, a fleet report with
``aggregate``, a result dict with ``cycles``) are rejected.

``docs/service.md`` documents the wire protocol this module types.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

# The schema generation. Bump only for an incompatible change to an
# envelope body; additive request fields with defaults do not count.
PAYLOAD_VERSION = 1


class SchemaError(ValueError):
    """A document that does not parse as a valid envelope or request."""


@dataclass(frozen=True)
class Envelope:
    """One versioned wire document: ``kind`` names the ``body``'s type."""

    kind: str
    body: dict
    payload_version: int = PAYLOAD_VERSION

    def to_wire(self) -> dict:
        return {
            "payload_version": self.payload_version,
            "kind": self.kind,
            "body": self.body,
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "Envelope":
        if not isinstance(doc, dict):
            raise SchemaError(f"envelope must be an object, got {type(doc).__name__}")
        missing = {"payload_version", "kind", "body"} - doc.keys()
        if missing:
            raise SchemaError(f"envelope missing {sorted(missing)}")
        version = doc["payload_version"]
        if version != PAYLOAD_VERSION:
            raise SchemaError(
                f"payload_version {version!r} is not supported "
                f"(this build speaks version {PAYLOAD_VERSION})"
            )
        if not isinstance(doc["kind"], str) or not doc["kind"]:
            raise SchemaError("envelope kind must be a non-empty string")
        if not isinstance(doc["body"], dict):
            raise SchemaError("envelope body must be an object")
        return cls(kind=doc["kind"], body=doc["body"], payload_version=version)


def wire_encode(envelope: Envelope) -> str:
    """One NDJSON line (no trailing newline): sorted keys, compact.

    Sorted-key compact serialization makes identical envelopes
    byte-identical on the wire — the same determinism convention as the
    sweep payload and the JSONL sinks.
    """
    return json.dumps(envelope.to_wire(), sort_keys=True, separators=(",", ":"))


def wire_decode(line: str) -> Envelope:
    """Parse one NDJSON line into a validated :class:`Envelope`."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    return Envelope.from_wire(doc)


# -- typed requests -----------------------------------------------------------


@dataclass
class Request:
    """Base of the typed request vocabulary (never sent itself).

    Subclasses set ``kind`` and declare their fields; ``to_wire`` and
    ``from_wire`` round-trip exactly (unknown body keys are rejected, so
    a typo'd knob fails loudly instead of silently running defaults).
    """

    kind = ""  # overridden per subclass

    def to_wire(self) -> Envelope:
        body = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            body[spec.name] = value
        return Envelope(kind=self.kind, body=body)

    @classmethod
    def from_wire(cls, envelope: Envelope) -> "Request":
        if envelope.kind != cls.kind:
            raise SchemaError(f"expected kind {cls.kind!r}, got {envelope.kind!r}")
        known = {spec.name for spec in fields(cls)}
        unknown = set(envelope.body) - known
        if unknown:
            raise SchemaError(
                f"{cls.kind} request does not accept {sorted(unknown)} "
                f"(knobs: {sorted(known)})"
            )
        return cls(**envelope.body)

    def _as_tuple(self, *names: str) -> None:
        # Wire JSON has no tuples; normalize list-valued fields back so
        # from_wire(to_wire(req)) == req holds (the round-trip contract).
        for name in names:
            value = getattr(self, name)
            if isinstance(value, list):
                setattr(self, name, tuple(value))


# Help text for the knobs several requests share.
_WORKLOAD = "a SPEC benchmark name, or stream/chase/resident"
_CONFIG = "registry configuration label"
_EVENTS = "L2 accesses in the trace"
_OVERLAP = "fraction of raw miss latency exposed as stall"
_WARMUP = "leading fraction of the trace that warms the caches unmeasured"


def _knob(default, help: str, of: type | None = None):
    """A request field with its CLI help; ``of`` types a tuple's elements."""
    return field(default=default, metadata={"help": help, "of": of})


@dataclass
class HelloRequest(Request):
    """Names the connection's tenant; first message on a connection."""

    kind = "hello"
    tenant: str = _knob("anon", "tenant name reported to the service")


@dataclass
class SimulateRequest(Request):
    """One (workload, config) cell through the timing model."""

    kind = "simulate"
    workload: str = _knob("stream", _WORKLOAD)
    config: str = _knob("aise+bmt", _CONFIG)
    events: int = _knob(60_000, _EVENTS)
    overlap: float = _knob(0.7, _OVERLAP)
    warmup: float = _knob(0.25, _WARMUP)
    metrics: bool = _knob(False, "attach the end-of-run metrics-registry snapshot to the result")
    label: str | None = _knob(None, "result label (default: the config's)")


@dataclass
class SweepRequest(Request):
    """A (benchmark x configuration) grid; body mirrors :func:`repro.api.sweep`."""

    kind = "sweep"
    configs: tuple | None = _knob(None, "subset of registry configs (default: all)", of=str)
    benchmarks: tuple | None = _knob(None, "subset of benchmarks (default: all 21)", of=str)
    events: int = _knob(60_000, _EVENTS)
    mac_bits: tuple = _knob((None,), "MAC-size overrides (default: each config's own)", of=int)
    workers: int = _knob(1, "process-pool width (1 = serial, 0 = one per core)")
    metrics: bool = _knob(False, "attach per-cell metrics-registry snapshots to the results")
    overlap: float = _knob(0.7, _OVERLAP)
    warmup: float = _knob(0.25, _WARMUP)

    def __post_init__(self):
        self._as_tuple("configs", "benchmarks", "mac_bits")


@dataclass
class TraceRequest(Request):
    """One workload under full observability."""

    kind = "trace"
    workload: str = _knob("stream", _WORKLOAD)
    config: str = _knob("aise+bmt", _CONFIG)
    events: int = _knob(60_000, _EVENTS)
    interval: int = _knob(1024, "measured events between metric snapshots")
    warmup: float = _knob(0.25, _WARMUP)


@dataclass
class PrecompileRequest(Request):
    """Lower a workload's trace ahead of time (shared across sessions)."""

    kind = "precompile"
    workload: str = _knob("stream", _WORKLOAD)
    config: str = _knob("aise+bmt", _CONFIG)
    events: int = _knob(60_000, _EVENTS)


@dataclass
class PresetsRequest(Request):
    """Discover configuration labels; ``full`` includes registry-valid extras."""

    kind = "presets"
    full: bool = _knob(False, "include registry-valid non-canonical combinations")


@dataclass
class StatusRequest(Request):
    """Server statistics (cache tiers, warm pool, jobs served)."""

    kind = "status"


@dataclass
class SubscribeRequest(Request):
    """Stream fleet progress events for subsequent jobs on this connection."""

    kind = "subscribe"
    progress: bool = True


@dataclass
class ShutdownRequest(Request):
    """Ask the server to drain and stop (load-generator teardown)."""

    kind = "shutdown"


REQUEST_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        HelloRequest,
        SimulateRequest,
        SweepRequest,
        TraceRequest,
        PrecompileRequest,
        PresetsRequest,
        StatusRequest,
        SubscribeRequest,
        ShutdownRequest,
    )
}


def request_from_wire(envelope: Envelope) -> Request:
    """Dispatch an envelope to its typed request class."""
    cls = REQUEST_TYPES.get(envelope.kind)
    if cls is None:
        raise SchemaError(
            f"unknown request kind {envelope.kind!r} "
            f"(known: {', '.join(sorted(REQUEST_TYPES))})"
        )
    return cls.from_wire(envelope)


# -- the CLI spelling of a request --------------------------------------------


def add_request_args(parser, cls: type, *, positional: tuple = ()) -> None:
    """Add one argparse argument per field of request class ``cls``.

    Field ``name`` becomes ``--name-with-dashes`` (an optional positional
    if listed in ``positional``) with the field default: a bool is a
    ``store_true`` switch, a tuple field (metadata ``of``: its element
    type) takes ``nargs="*"``, anything else is typed by its default.
    """
    for spec in fields(cls):
        kwargs = {"default": spec.default, "help": spec.metadata["help"]}
        if isinstance(spec.default, bool):
            kwargs["action"] = "store_true"
        elif spec.metadata["of"] is not None:
            kwargs.update(nargs="*", type=spec.metadata["of"])
        elif spec.default is None:
            kwargs["type"] = str
        else:
            kwargs["type"] = type(spec.default)
            kwargs["help"] += " (default: %(default)s)"
        if spec.name in positional:
            parser.add_argument(spec.name, nargs="?", **kwargs)
        else:
            parser.add_argument("--" + spec.name.replace("_", "-"), **kwargs)


def request_knobs(cls: type, args) -> dict:
    """``cls``'s field values from a namespace :func:`add_request_args` filled.

    A tuple flag given no values (``--mac-bits``) means the field default.
    """
    knobs = {}
    for spec in fields(cls):
        value = getattr(args, spec.name)
        knobs[spec.name] = spec.default if value == [] else value
    return knobs


# -- response envelopes -------------------------------------------------------
#
# Builders rather than classes: response bodies ARE the legacy payloads
# (SimResult.to_dict(), SweepRun.to_payload(), ...), enveloped verbatim.


def result_envelope(result: dict, **meta) -> Envelope:
    """A single :class:`~repro.sim.results.SimResult` dict, plus metadata.

    ``meta`` (e.g. ``served_from="lru"``, ``job=3``) rides next to the
    result under reserved keys the result dict never uses.
    """
    body = {"result": result}
    overlap = set(meta) & set(body)
    if overlap:
        raise SchemaError(f"meta keys {sorted(overlap)} collide with the body")
    body.update(meta)
    return Envelope(kind="result", body=body)


def sweep_envelope(payload: dict, **meta) -> Envelope:
    """A ``SweepRun.to_payload()`` body — the golden byte-identity surface."""
    body = dict(payload)
    for key, value in meta.items():
        if key in payload:
            raise SchemaError(f"meta key {key!r} collides with the sweep payload")
        body[key] = value
    return Envelope(kind="sweep", body=body)


def trace_envelope(payload: dict) -> Envelope:
    """A ``TraceRun.to_payload()`` body."""
    return Envelope(kind="trace", body=payload)


def fleet_envelope(payload: dict) -> Envelope:
    """A ``FleetReport.to_payload()`` body."""
    return Envelope(kind="fleet", body=payload)


def presets_envelope(labels) -> Envelope:
    return Envelope(kind="presets", body={"presets": list(labels)})


def status_envelope(stats: dict) -> Envelope:
    return Envelope(kind="status", body=dict(stats))


def event_envelope(record: dict, *, job: int, tenant: str) -> Envelope:
    """One fleet progress record, tagged with its job and tenant."""
    return Envelope(kind="event", body={"job": job, "tenant": tenant, "record": record})


def ok_envelope(**body) -> Envelope:
    return Envelope(kind="ok", body=body)


def error_envelope(message: str, **detail) -> Envelope:
    return Envelope(kind="error", body={"error": message, **detail})
