"""Memory-access traces for the timing simulator.

A trace is the stream of *L2 accesses* (L1 misses) of a program: for each
event, the number of instructions executed since the previous event, the
operation (read/write), and the physical block address. Driving the model
with L1-filtered streams keeps a pure-Python simulator fast while leaving
every effect the paper measures (L2 behaviour, bus traffic, metadata
caching) fully modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mem.layout import BLOCK_SIZE

OP_READ = 0
OP_WRITE = 1


class DecodedTrace:
    """A trace pre-decoded for the :mod:`repro.fastpath` timing loop.

    Plain Python lists (gaps, ops, block-aligned addresses): iterating
    numpy arrays yields a fresh scalar object per element, so the hot
    loop runs over native ints instead. Addresses are aligned with the
    exact expression the reference loop uses, keeping results
    byte-identical.
    """

    __slots__ = ("gaps", "ops", "addresses")

    def __init__(self, gaps: list, ops: list, addresses: list):
        self.gaps = gaps
        self.ops = ops
        self.addresses = addresses

    def __len__(self) -> int:
        return len(self.addresses)


@dataclass
class Trace:
    """Column-oriented access trace."""

    gaps: np.ndarray  # instructions since previous event (uint32)
    ops: np.ndarray  # OP_READ / OP_WRITE (uint8)
    addresses: np.ndarray  # byte addresses (uint64), block-aligned
    name: str = "trace"

    def __post_init__(self):
        n = len(self.addresses)
        if len(self.gaps) != n or len(self.ops) != n:
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def instructions(self) -> int:
        return int(self.gaps.sum()) + len(self)

    @property
    def write_fraction(self) -> float:
        return float(self.ops.mean()) if len(self) else 0.0

    @property
    def footprint_bytes(self) -> int:
        if not len(self):
            return 0
        unique_blocks = np.unique(self.addresses // BLOCK_SIZE)
        return int(len(unique_blocks)) * BLOCK_SIZE

    def digest(self) -> str:
        """Content digest of the trace (hex), for result-cache keying.

        Covers the three event columns (as little-endian fixed-width
        bytes, so the digest is platform-independent) and the name; two
        traces with the same digest produce identical simulations.
        """
        import hashlib

        # Cache keying, not an integrity guarantee — unkeyed is fine here.
        h = hashlib.sha256()  # repro: allow(SEC002)
        h.update(self.name.encode())
        h.update(len(self).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self.gaps, dtype="<u4").tobytes())
        h.update(np.ascontiguousarray(self.ops, dtype="<u1").tobytes())
        h.update(np.ascontiguousarray(self.addresses, dtype="<u8").tobytes())
        return h.hexdigest()

    def decoded(self) -> DecodedTrace:
        """The pre-decoded form of this trace, computed once and memoized.

        The numpy→list conversion was previously redone on every
        ``TimingSimulator.run``; a trace is immutable in practice, so the
        decoded columns are cached on the instance. The memo is dropped
        on pickling (:meth:`__getstate__`) — process-pool workers rebuild
        it locally rather than paying to ship three redundant lists.
        """
        cached = self.__dict__.get("_decoded")
        if cached is None:
            cached = DecodedTrace(
                gaps=self.gaps.tolist(),
                ops=self.ops.tolist(),
                addresses=((self.addresses // BLOCK_SIZE) * BLOCK_SIZE).tolist(),
            )
            self.__dict__["_decoded"] = cached
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_decoded", None)
        state.pop("_compiled", None)  # lowerings rebuild cheaply in-process
        state.pop("_l2_stage", None)  # and so does the staged lowering's L2
        return state

    def aligned(self) -> "Trace":
        """Return a copy with block-aligned addresses."""
        return Trace(
            gaps=self.gaps,
            ops=self.ops,
            addresses=(self.addresses // BLOCK_SIZE) * BLOCK_SIZE,
            name=self.name,
        )

    @classmethod
    def from_lists(cls, events: list[tuple[int, int, int]], name: str = "trace") -> "Trace":
        """Build from [(gap, op, address), ...] tuples (tests, examples)."""
        if events:
            gaps, ops, addresses = zip(*events)
        else:
            gaps, ops, addresses = (), (), ()
        return cls(
            gaps=np.asarray(gaps, dtype=np.uint32),
            ops=np.asarray(ops, dtype=np.uint8),
            addresses=np.asarray(addresses, dtype=np.uint64),
            name=name,
        )

    def concat(self, other: "Trace") -> "Trace":
        return Trace(
            gaps=np.concatenate([self.gaps, other.gaps]),
            ops=np.concatenate([self.ops, other.ops]),
            addresses=np.concatenate([self.addresses, other.addresses]),
            name=f"{self.name}+{other.name}",
        )
