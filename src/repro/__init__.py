"""repro: AISE + Bonsai Merkle Trees — an OS- and performance-friendly
secure-processor memory protection library.

Reproduction of Rogers, Chhabra, Solihin & Prvulovic, "Using Address
Independent Seed Encryption and Bonsai Merkle Trees to Make Secure
Processors OS- and Performance-Friendly" (MICRO 2007).

The blessed entry points live in :mod:`repro.api` (re-exported here):
``build_machine`` for a functional secure processor, ``simulate`` /
``sweep`` / ``trace`` for the timing model, all keyed by preset labels
(``MachineConfig.preset``). Underneath:

* ``repro.core.SecureMemorySystem`` — a functional secure processor:
  real counter-mode encryption (AISE and the baseline seed schemes),
  real Merkle / Bonsai-Merkle integrity trees, tamper detection.
* ``repro.osmodel.Kernel`` — a virtual-memory OS model (paging, swap
  with page-root protection, fork/COW, shared-memory IPC) driving it.
* ``repro.sim.TimingSimulator`` + ``repro.evalx`` — the trace-driven
  performance model and the harness regenerating every table and figure
  of the paper's evaluation.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "api",
    "build_machine",
    "simulate",
    "sweep",
    "trace",
    "load_trace",
    "preset_names",
    "SecureMemorySystem",
    "MachineConfig",
    "AccessContext",
    "IntegrityError",
    "Kernel",
    "TimingSimulator",
    "SimResult",
    "Trace",
    "core",
    "crypto",
    "fastpath",
    "mem",
    "osmodel",
    "integrity",
    "sim",
    "workloads",
    "attacks",
    "evalx",
    "__version__",
]

# Every name resolves on first use, so ``import repro`` loads no layer
# and a script loads only the layers it touches: the functional machine
# never pays for numpy or the timing model.
__getattr__ = lazy_exports(__name__, {
    "api": None, "analysis": None, "attacks": None, "core": None,
    "crypto": None, "evalx": None, "fastpath": None, "integrity": None,
    "mem": None, "obs": None, "osmodel": None, "schemes": None,
    "service": None, "sim": None, "workloads": None,
    "build_machine": ".api", "simulate": ".api", "sweep": ".api",
    "trace": ".api", "load_trace": ".api", "preset_names": ".api",
    "SecureMemorySystem": ".core", "MachineConfig": ".core",
    "AccessContext": ".core", "IntegrityError": ".core",
    "Kernel": ".osmodel",
    "TimingSimulator": ".sim", "SimResult": ".sim", "Trace": ".sim",
})
