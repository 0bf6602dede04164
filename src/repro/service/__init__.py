"""repro.service: simulation as a service.

A long-lived asyncio job server over the evaluation engine: many
concurrent clients submit simulate/sweep/trace/precompile requests as
newline-delimited JSON envelopes (:mod:`repro.api.schema`) and get
per-cell results **byte-identical to a cold ``repro sweep``** — the
speed comes from amortizing everything that is not a result: shared
decoded traces and compiled lowerings (:class:`~repro.service.warmpool.
TraceStore`), pooled cold-reset machines (:class:`~repro.service.
warmpool.WarmMachinePool`), an in-memory LRU result tier in front of
the disk cache (:class:`~repro.service.cache.LruResultTier`), and
single-flight collapsing of concurrent identical requests
(:class:`~repro.service.cache.SingleFlight`).

* Serve: ``python -m repro serve --cache-dir .sweep-cache``
* Submit: ``python -m repro submit sweep --configs base aise+bmt``
* In-process: :func:`~repro.service.client.serve_background` +
  :class:`~repro.service.client.ServiceClient`

``docs/service.md`` documents the protocol, the envelope schema, the
warm-pool soundness rules, and the tenancy model;
``benchmarks/bench_service.py`` measures the cold/warm/LRU latency
tiers against the committed ``BENCH_service.json``.
"""

from .._lazy import lazy_exports

# Resolved on first use: a client (``repro submit``) needs only the
# socket client and the schema, not the server's evaluation stack.
__getattr__ = lazy_exports(__name__, {
    "LruResultTier": ".cache",
    "SingleFlight": ".cache",
    "ServiceClient": ".client",
    "ServiceError": ".client",
    "ServiceHandle": ".client",
    "serve_background": ".client",
    "SweepService": ".server",
    "TraceStore": ".warmpool",
    "WarmMachinePool": ".warmpool",
})

__all__ = [
    "LruResultTier",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "SingleFlight",
    "SweepService",
    "TraceStore",
    "WarmMachinePool",
    "serve_background",
]
