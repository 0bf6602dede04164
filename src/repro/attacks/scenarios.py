"""End-to-end attack scenarios with expected outcomes per scheme.

Each scenario runs a concrete attack against a live
:class:`~repro.core.machine.SecureMemorySystem` and reports whether the
processor detected it. The expected-outcome matrix is the paper's
security argument in executable form:

=================  =========  =========  ==========  =========  ======
attack             mac_only   merkle     bonsai      loghash    none
=================  =========  =========  ==========  =========  ======
spoof data         detected   detected   detected    missed**   missed
splice data        detected   detected   detected    missed**   missed
replay data+MAC    MISSED     detected   detected    missed**   missed
tamper counter     missed     detected   detected    missed**   missed
tamper swap page   n/a        detected*  detected*   n/a        missed
=================  =========  =========  ==========  =========  ======

``bmt_lazy`` (the bonsai tree under the lazy, coalescing policies) has the
``bonsai`` column for every block the tree has measured. The counter row
applies only to counter-mode encryption (no counters, no scenario).
(*) via the page-root directory, section 5.1, and not part of
:func:`run_all`. (**) at use: the log-hash baseline catches the tamper
only at its next periodic check.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import IntegrityError
from ..core.machine import SecureMemorySystem
from ..mem.layout import PAGE_SIZE, block_address
from .tamper import MemoryTamperer


@dataclass
class ScenarioResult:
    """Outcome of one attack scenario: detected or silently missed."""

    scenario: str
    detected: bool
    detail: str = ""


def _read_expecting(machine: SecureMemorySystem, address: int, scenario: str) -> ScenarioResult:
    try:
        machine.read_block(block_address(address))
    except IntegrityError as err:
        return ScenarioResult(scenario, detected=True, detail=str(err))
    return ScenarioResult(scenario, detected=False)


def spoofing_attack(machine: SecureMemorySystem, address: int = 0) -> ScenarioResult:
    """Overwrite ciphertext in DRAM; the next load must fail verification."""
    machine.write_block(address, b"\x11" * 64)
    MemoryTamperer(machine).spoof(address)
    return _read_expecting(machine, address, "spoofing")


def splicing_attack(machine: SecureMemorySystem, address_a: int = 0, address_b: int = 4096) -> ScenarioResult:
    """Exchange two valid ciphertext blocks; loads of either must fail."""
    machine.write_block(address_a, b"\x22" * 64)
    machine.write_block(address_b, b"\x33" * 64)
    MemoryTamperer(machine).splice(address_a, address_b)
    result = _read_expecting(machine, address_a, "splicing")
    if result.detected:
        return result
    return _read_expecting(machine, address_b, "splicing")


def replay_attack(machine: SecureMemorySystem, address: int = 64) -> ScenarioResult:
    """Roll a block back to an older (value, MAC, counter-credential) set.

    This is the attack that separates Merkle-based schemes from MAC-only
    protection: the stale pair is internally consistent, so only freshness
    anchoring (the tree) can reject it.
    """
    tamperer = MemoryTamperer(machine)
    machine.write_block(address, b"OLD-" * 16)
    stale = tamperer.snapshot_with_metadata(address)
    machine.write_block(address, b"NEW!" * 16)
    tamperer.replay(stale)
    return _read_expecting(machine, address, "replay")


def counter_tamper_attack(machine: SecureMemorySystem, address: int = 128) -> ScenarioResult:
    """Corrupt a block's counter storage in DRAM.

    Under BMT, counters are the freshness root of the whole scheme; the
    bonsai tree must catch any modification when the counter block is
    (re)loaded on-chip.
    """
    machine.write_block(address, b"\x44" * 64)
    cb = machine.encryption.counter_block_address(address)
    if cb is None:
        return ScenarioResult("counter-tamper", detected=False, detail="scheme has no counters")
    tamperer = MemoryTamperer(machine)
    tamperer.spoof(cb)
    # Force the on-chip counter copy out so the poisoned block is refetched.
    machine.invalidate_page(address // 4096)
    drop = getattr(machine.encryption, "drop_cached_counters", None)
    if drop is not None:
        drop(address // 4096)
    try:
        machine.read_block(block_address(address))
    except IntegrityError as err:
        return ScenarioResult("counter-tamper", detected=True, detail=str(err))
    return ScenarioResult("counter-tamper", detected=False)


def run_all(machine: SecureMemorySystem) -> list[ScenarioResult]:
    """Run every scenario applicable to the machine's configuration.

    Each scenario attacks pages of its own (pages 0-4; the machine needs
    at least five), so no verdict is decided by metadata an earlier
    scenario tampered with or rolled back: a counter block covers a whole
    page under some schemes, and a replay leaves it stale on purpose.
    """
    if machine.layout.data_bytes < 5 * PAGE_SIZE:
        raise ValueError("run_all needs a machine with at least 5 data pages")
    results = [
        spoofing_attack(machine, 0),
        splicing_attack(machine, PAGE_SIZE, 2 * PAGE_SIZE),
        replay_attack(machine, 3 * PAGE_SIZE + 64),
    ]
    if machine.encryption.uses_counters:
        results.append(counter_tamper_attack(machine, 4 * PAGE_SIZE + 128))
    return results
