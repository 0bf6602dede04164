"""Spans around calls into each layer's public functions, from outside.

The traced run wraps the public names listed in ``LAYER_PATCHES`` *where
their callers look them up* (``repro.fastpath.engine`` imports
``execute_compiled`` by name, so the wrapper goes on that module, not on
``repro.fastpath.compiled``). Each wrapper pushes a frame on a
per-thread stack — the service runs simulations on
``asyncio.to_thread`` workers — and on return records one span:
id, parent id, layer name, thread, start, end and self time (duration
minus the time of child spans on the same thread).

Spans are recorded only while ``recording`` is set (the harness sets it
around each measured op, so set-up and off-clock checks leave no
spans), kept in memory and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

# (layer, module or class path, attribute). Class attributes are
# patched on the class, so bound methods created after patching (the
# machine wires ``integrity.verify_data`` into its encryption engine at
# construction) see the wrapper: install before building anything.
LAYER_PATCHES = (
    ("workloads.generate", "repro.evalx.runner", "spec_trace"),
    ("workloads.generate", "repro.workloads.spec2k", "spec_trace"),
    ("fastpath.lower", "repro.fastpath.compiled", "lower"),
    ("fastpath.lower.probe", "repro.fastpath.compiled", "compiled_for"),
    ("fastpath.replay", "repro.fastpath.engine", "execute_compiled"),
    ("fastpath.per_event", "repro.fastpath", "execute"),
    ("sim.run", "repro.sim.simulator:TimingSimulator", "run"),
    ("sim.reset_cold", "repro.sim.simulator:TimingSimulator", "reset_cold"),
    ("evalx.run_cells", "repro.evalx.runner", "run_cells"),
    ("evalx.cache.get", "repro.evalx.parallel:ResultCache", "get"),
    ("api.schema.wire", "repro.api.schema", "wire_encode"),
    ("api.schema.wire", "repro.api.schema", "wire_decode"),
    ("core.machine.read_block", "repro.core.machine:SecureMemorySystem", "read_block"),
    ("core.machine.write_block", "repro.core.machine:SecureMemorySystem", "write_block"),
    ("crypto.pad", "repro.crypto.ctr_mode:PadGenerator", "block_pad_int"),
    ("integrity.verify", "repro.integrity.bonsai:BonsaiMerkleIntegrity", "verify_data"),
    ("integrity.update", "repro.integrity.bonsai:BonsaiMerkleIntegrity", "update_data"),
    ("integrity.verify", "repro.integrity.merkle:MerkleTree", "verify"),
    ("integrity.update", "repro.integrity.merkle:MerkleTree", "update"),
)


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self):
        self.recording = False
        self.op = -1               # index of the step in flight
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, path, attr in LAYER_PATCHES:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(layer, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn):
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident
        is_replay = layer == "fastpath.replay"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            # frame: [span id, start, child seconds, replay child seen]
            frame = [next(ids), clock(), 0.0, False]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    if is_replay:
                        parent[3] = True
                    parent_id = parent[0]
                else:
                    parent_id = 0
                spans.append((frame[0], parent_id, layer, get_ident(), frame[1],
                              end, duration - frame[2], tracer.op, frame[3]))

        return wrapper

    # -- reading --------------------------------------------------------------

    def summary(self, factor_of_op) -> dict:
        """Per-layer calls and normalized self seconds.

        ``factor_of_op(op)`` gives the host-speed factor of the step a
        span belongs to. ``fastpath.per_event`` covers only the
        ``execute`` spans that ran the per-event engine: an ``execute``
        span that handed off to compiled replay is not counted as a
        call, and its self time (the eligibility check and the telemetry
        record around the hand-off) goes to ``fastpath.replay``.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for _sid, _parent, layer, _tid, _start, _end, own, op, replayed in self.spans:
            if layer == "fastpath.per_event" and replayed:
                calls.setdefault(layer, 0)
                layer = "fastpath.replay"
            else:
                calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + own * factor_of_op(op)
        return {"calls": calls, "self_s": self_s}

    def server_seconds(self, client_threads: set, factor_of_op) -> float:
        """Normalized time of top-level spans on threads other than the
        benchmark's client threads (the server side of each request)."""
        total = 0.0
        for _sid, parent, _layer, tid, start, end, _own, op, _r in self.spans:
            if parent == 0 and tid not in client_threads:
                total += (end - start) * factor_of_op(op)
        return total

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        threads: dict[int, int] = {}
        with open(path, "w") as out:
            for sid, parent, layer, tid, start, end, own, op, _r in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": layer,
                    "thread": threads.setdefault(tid, len(threads)),
                    "op": op, "start_us": round(start * 1e6, 1),
                    "dur_us": round((end - start) * 1e6, 2),
                    "self_us": round(own * 1e6, 2),
                }) + "\n")
