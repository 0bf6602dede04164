"""Off-chip memory bus model with occupancy and queueing.

Every off-chip transfer (data fill, writeback, counter block, MAC block,
Merkle-tree node) occupies the bus for ``cycles_per_block`` cycles. The
bus serializes transfers: a request issued while the bus is busy queues
behind earlier traffic, which is how integrity-verification traffic slows
down demand fetches in the timing model (Figure 10b measures the
resulting utilization).

Time on the bus is a **float**, matching the simulator's clock (which
advances by fractional instruction gaps): request timestamps, busy and
queue cycles are all float-valued. Transfer *durations* stay integral
(``max(1, round(cycles_per_block * fraction))``, memoized per fraction)
so sub-block transfers quantize deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The paper's FSB figure (64B over ~4.6GB/s seen from a 2GHz core); the
# simulator always passes MachineConfig.bus_cycles_per_block — this default
# only serves standalone bus experiments.
DEFAULT_CYCLES_PER_BLOCK = 28  # repro: allow(SIM001)


@dataclass(slots=True)
class BusStats:
    """Aggregate bus activity: transfer counts, busy and queue cycles."""

    transfers: int = 0
    busy_cycles: float = 0.0
    queue_cycles: float = 0.0
    transfers_by_kind: dict = field(default_factory=dict)

    def utilization(self, total_cycles: float) -> float:
        """Fraction of ``total_cycles`` the bus was busy (clamped to 1)."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)


class _Durations(dict):
    """Transfer duration per fraction of a block, computed on first use.

    The one home of duration quantization: :meth:`MemoryBus.request`
    and the compiled replay both read it.
    """

    __slots__ = ("cycles_per_block",)

    def __init__(self, cycles_per_block: int):
        super().__init__()
        self.cycles_per_block = cycles_per_block

    def __missing__(self, fraction: float) -> int:
        duration = self[fraction] = max(1, round(self.cycles_per_block * fraction))
        return duration


class MemoryBus:
    """A single shared channel between the processor chip and DRAM."""

    __slots__ = ("_durations", "_free_at", "stats")

    def __init__(self, cycles_per_block: int = DEFAULT_CYCLES_PER_BLOCK):
        self._durations = _Durations(cycles_per_block)
        self._free_at = 0.0
        self.stats = BusStats()

    @property
    def cycles_per_block(self) -> int:
        """Bus cycles one full-block transfer occupies (fixed at construction)."""
        return self._durations.cycles_per_block

    def duration(self, fraction: float = 1.0) -> int:
        """The quantized occupancy of a transfer of ``fraction`` of a block:
        ``max(1, round(cycles_per_block * fraction))``, memoized per fraction."""
        return self._durations[fraction]

    def request(self, cycle: float, kind: str = "data", fraction: float = 1.0) -> tuple[float, float]:
        """Schedule one transfer wishing to start at ``cycle``.

        ``fraction`` scales the occupancy for sub-block transfers (e.g. a
        single 16-byte MAC read is a quarter of a 64-byte line). Returns
        ``(start_cycle, end_cycle)``: the transfer occupies the bus from
        ``start_cycle`` (>= cycle, after queueing) to ``end_cycle``.
        """
        duration = self._durations[fraction]
        free_at = self._free_at
        start = free_at if free_at > cycle else cycle
        end = start + duration
        self._free_at = end
        stats = self.stats
        stats.transfers += 1
        stats.busy_cycles += duration
        stats.queue_cycles += start - cycle
        by_kind = stats.transfers_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        return start, end

    def credit(
        self,
        transfers: int,
        busy_cycles: float,
        queue_cycles: float,
        by_kind: dict,
        free_at: float,
    ) -> None:
        """Settle a batch of transfers accounted externally.

        The :mod:`repro.fastpath` replay models bus occupancy with the
        same quantized-duration arithmetic as :meth:`request` but keeps
        the running tallies (and the bus-free timestamp) in local
        variables; it settles its measured totals here (after
        :meth:`reset_stats`, so a float total is the replay's own sum)
        at the end of a run, and before every interval sample.
        Routing the settlement through the bus keeps every ``stats``
        write inside this module (the OBS001 invariant) and keeps
        pull-model gauges bound over ``self.stats`` truthful.
        """
        stats = self.stats
        stats.transfers += transfers
        stats.busy_cycles += busy_cycles
        stats.queue_cycles += queue_cycles
        for kind, count in by_kind.items():
            stats.transfers_by_kind[kind] = (
                stats.transfers_by_kind.get(kind, 0) + count
            )
        # Monotonic clamp: a batch settled after interleaved request()
        # traffic (or out of order) must never move bus time backwards
        # behind already-settled transfers.
        if free_at > self._free_at:
            self._free_at = free_at

    @property
    def free_at(self) -> float:
        return self._free_at

    def rebase(self, cycle: float = 0.0) -> None:
        """Re-anchor bus time at ``cycle``, keeping accumulated statistics.

        A :class:`~repro.sim.simulator.TimingSimulator` restarts its clock
        at 0.0 on every ``run()``; without rebasing, ``_free_at`` would
        still hold the previous trace's final timestamp and every early
        transfer of the new run would queue behind phantom traffic.
        """
        self._free_at = cycle

    def reset_stats(self) -> None:
        """Zero the statistics without disturbing bus time.

        The sanctioned stats-reset entry point (the OBS001 lint rule
        flags outside code replacing ``bus.stats`` directly): observers
        bind pull-model gauges over ``self.stats`` through this object,
        and those bindings survive because the swap happens here.
        """
        self.stats = BusStats()

    def reset(self) -> None:
        self._free_at = 0.0
        self.stats = BusStats()
