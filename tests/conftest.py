"""Shared fixtures: small functional machines for every protection scheme.

Functional tests use 1MB data regions (16-256 pages) so real crypto and
real tree updates stay fast; the schemes' behaviour is size-independent.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import MachineConfig, SecureMemorySystem
from repro.osmodel import Kernel

SMALL = 1 << 20  # 1MB data region
TINY = 16 * 4096  # 16 pages

# A long run of the properties that opt into it (CI's soak step passes
# ``--hypothesis-profile=soak``); tier-1 keeps their small budgets.
settings.register_profile("soak", max_examples=300, deadline=None)


def make_machine(encryption="aise", integrity="bonsai", data_bytes=SMALL, **overrides) -> SecureMemorySystem:
    config = MachineConfig(
        physical_bytes=data_bytes,
        encryption=encryption,
        integrity=integrity,
        **overrides,
    )
    machine = SecureMemorySystem(config)
    machine.boot()
    return machine


@pytest.fixture
def bmt_machine() -> SecureMemorySystem:
    """AISE + Bonsai Merkle Tree (the paper's proposal)."""
    return make_machine()


@pytest.fixture
def mt_machine() -> SecureMemorySystem:
    """Global-64 + standard Merkle tree (the paper's comparison point)."""
    return make_machine(encryption="global64", integrity="merkle")


@pytest.fixture
def mac_machine() -> SecureMemorySystem:
    return make_machine(integrity="mac_only")


@pytest.fixture
def plain_machine() -> SecureMemorySystem:
    return make_machine(encryption="none", integrity="none")


@pytest.fixture
def tiny_kernel() -> Kernel:
    """16 data frames + swap — small enough to force page replacement."""
    machine = make_machine(data_bytes=TINY, swap_bytes=64 * 4096)
    return Kernel(machine, swap_slots=64)


@pytest.fixture
def kernel_factory():
    """Build a kernel over any scheme combination."""

    def build(encryption="aise", integrity="bonsai", frames=16, swap_slots=64, **overrides) -> Kernel:
        machine = make_machine(
            encryption=encryption,
            integrity=integrity,
            data_bytes=frames * 4096,
            swap_bytes=swap_slots * 4096,
            **overrides,
        )
        return Kernel(machine, swap_slots=swap_slots)

    return build
