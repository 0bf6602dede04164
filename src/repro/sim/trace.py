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

    def pres(self, issue_width: int) -> list:
        """Per-event clock increments ``gap / issue_width`` as Python
        floats, memoized per issue width.

        They depend only on the trace, so every replay of it shares them
        whatever its lowering. IEEE-754 division of exactly-representable
        integers matches an inline ``gap / issue`` bit for bit. Dropped on
        pickling, like the other memos.
        """
        memo = self.__dict__.setdefault("_pres", {})
        cached = memo.get(issue_width)
        if cached is None:
            cached = memo[issue_width] = (self.gaps / issue_width).tolist()
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_pres", None)
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
