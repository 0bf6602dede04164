"""The functional and timing systems must agree on shared structure.

Both are built from the same ``plan_layout`` and ``TreeGeometry``; these
tests pin that the agreement is real — metadata addresses the timing
model fetches are exactly where the functional machine keeps the bytes.
"""

import pytest

from repro.core import MachineConfig, SecureMemorySystem
from repro.core.machine import plan_layout
from repro.fastpath.walk import miss_walk
from repro.sim.simulator import TimingSimulator
from repro.mem.layout import BLOCK_SIZE, PAGE_SIZE

CONFIGS = [
    MachineConfig(physical_bytes=64 * PAGE_SIZE, encryption="aise", integrity="bonsai"),
    MachineConfig(physical_bytes=64 * PAGE_SIZE, encryption="aise", integrity="merkle"),
    MachineConfig(physical_bytes=64 * PAGE_SIZE, encryption="global64", integrity="merkle"),
    MachineConfig(physical_bytes=64 * PAGE_SIZE, encryption="split_ctr", integrity="bonsai",
                  mac_bits=64),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.encryption}+{c.integrity}")
class TestSharedLayout:
    def test_counter_addresses_agree(self, config):
        machine = SecureMemorySystem(config)
        machine.boot()
        walk = miss_walk(TimingSimulator(config), [].append)
        if not machine.encryption.uses_counters:
            pytest.skip("no counters")
        for paddr in (0, 64, PAGE_SIZE, 5 * PAGE_SIZE + 128):
            assert (machine.encryption.counter_block_address(paddr)
                    == walk.counter_block(paddr) * BLOCK_SIZE)

    def test_mac_addresses_agree(self, config):
        machine = SecureMemorySystem(config)
        machine.boot()
        walk = miss_walk(TimingSimulator(config), [].append)
        store = getattr(machine.integrity, "store", None)
        if store is None:
            pytest.skip("no per-block MAC store")
        for paddr in (0, 64, 3 * 64, PAGE_SIZE + 192):
            assert (store.mac_block_address(paddr)
                    == walk.mac_block(paddr // BLOCK_SIZE) * BLOCK_SIZE)

    def test_tree_walks_agree(self, config):
        """The timing model's per-miss walk fetches exactly the node
        blocks the functional tree stores MACs in."""
        machine = SecureMemorySystem(config)
        machine.boot()
        sim = TimingSimulator(config)
        if machine.tree is None:
            pytest.skip("no tree")
        geometry = machine.tree.geometry
        covered_addr = geometry.covered_start + 5 * 64
        functional = [ref.address for ref in geometry.walk(covered_addr)]

        # A cold walk fetches every level; it reports each fetch.
        fetches = []
        walk = miss_walk(sim, [].append,
                         emit=lambda event, **fields: fetches.append((event, fields)))
        block = covered_addr // BLOCK_SIZE
        if sim._tree_covers_data:
            walk.integrity(block)
        else:  # the tree covers counter blocks
            walk.counter_access(block, False)
        timing = [fields["addr"] for event, fields in fetches
                  if event == "merkle_fetch"]
        assert timing == functional

    def test_layouts_identical(self, config):
        functional_layout = SecureMemorySystem(config).layout
        timing_layout, _ = plan_layout(config)
        assert functional_layout == timing_layout


class TestFunctionalTreeMatchesGeometry:
    def test_macs_live_where_the_walk_looks(self):
        """Write through the functional machine; the node block at the
        walk's level-1 address must contain the freshly computed MAC of
        the covered block (byte-level agreement)."""
        config = CONFIGS[0]
        machine = SecureMemorySystem(config)
        machine.boot()
        machine.write_block(0, b"\x77" * 64)  # dirties counter block 0
        geometry = machine.tree.geometry
        counter_addr = machine.encryption.counter_block_address(0)
        ref = geometry.walk(counter_addr)[0]
        node = machine.memory.raw_read(ref.address)
        raw_counter = machine.memory.raw_read(counter_addr)
        expected = machine.tree._mac_child(raw_counter, 0, geometry.child_index(counter_addr))
        slot = ref.slot * machine.config.mac_bytes
        assert node[slot : slot + machine.config.mac_bytes] == expected
