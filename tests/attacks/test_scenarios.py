"""The executable security matrix: which scheme detects which attack.

``bmt_lazy`` runs the same matrix on the lazy, coalescing tree: every
attack lands while its dirty set still holds undrained updates. Its one
documented blind spot, tampering with a block the tree has never
touched, cannot arise here: booting the machine touches every counter
block, so every attacked block is already measured.
"""

import pytest

from repro.api import preset_names
from repro.attacks.scenarios import (
    counter_tamper_attack,
    replay_attack,
    run_all,
    splicing_attack,
    spoofing_attack,
)
from repro.attacks.tamper import MemoryTamperer
from repro.core.config import MachineConfig
from repro.core.machine import SecureMemorySystem
from repro.schemes import encryption_scheme

from tests.conftest import make_machine

TINY = 16 * 4096

# The scenarios module's docstring matrix, one column per integrity
# scheme (bmt_lazy has the bonsai column): spoof, splice, replay,
# counter tamper.
MATRIX = {
    "mac_only": (True, True, False, False),
    "merkle": (True, True, True, True),
    "bonsai": (True, True, True, True),
    "bmt_lazy": (True, True, True, True),
    "loghash": (False, False, False, False),  # caught only at the next check
    "none": (False, False, False, False),
}
SCENARIOS = ("spoofing", "splicing", "replay", "counter-tamper")


class TestDetectionMatrix:
    @pytest.mark.parametrize("integ", ["bonsai", "merkle", "mac_only", "bmt_lazy"])
    def test_spoofing_detected_by_all_integrity_schemes(self, integ):
        machine = make_machine(integrity=integ, data_bytes=TINY)
        assert spoofing_attack(machine).detected

    @pytest.mark.parametrize("integ", ["bonsai", "merkle", "mac_only", "bmt_lazy"])
    def test_splicing_detected_by_all_integrity_schemes(self, integ):
        machine = make_machine(integrity=integ, data_bytes=TINY)
        assert splicing_attack(machine).detected

    @pytest.mark.parametrize("integ", ["bonsai", "merkle", "bmt_lazy"])
    def test_replay_detected_by_tree_schemes(self, integ):
        machine = make_machine(integrity=integ, data_bytes=TINY)
        assert replay_attack(machine).detected

    def test_replay_missed_by_mac_only(self):
        """The paper's motivation for Merkle trees (section 5)."""
        machine = make_machine(integrity="mac_only", data_bytes=TINY)
        assert not replay_attack(machine).detected

    @pytest.mark.parametrize("integ", ["bonsai", "merkle", "bmt_lazy"])
    def test_counter_tamper_detected(self, integ):
        machine = make_machine(integrity=integ, data_bytes=TINY)
        assert counter_tamper_attack(machine).detected

    def test_unprotected_machine_misses_everything(self):
        machine = make_machine(encryption="none", integrity="none", data_bytes=TINY)
        for result in run_all(machine):
            assert not result.detected, result.scenario

    def test_bmt_full_matrix(self):
        machine = make_machine(data_bytes=TINY)
        results = {r.scenario: r.detected for r in run_all(machine)}
        assert results == {
            "spoofing": True,
            "splicing": True,
            "replay": True,
            "counter-tamper": True,
        }

    def test_bmt_lazy_matrix_meets_measured_blocks_with_updates_pending(self):
        """Why the lazy tree's never-touched blind spot cannot show above."""
        machine = make_machine(integrity="bmt_lazy", data_bytes=TINY)
        tree = machine.tree
        adopted = tree.adoptions
        assert adopted > 0 and tree.pending_updates() > 0
        for page in range(TINY // 4096):
            tree.verify(machine.encryption.counter_block_address(page * 4096))
        assert tree.adoptions == adopted  # boot measured every counter block

    @pytest.mark.parametrize("label", preset_names(full=True))
    def test_run_all_returns_the_documented_matrix(self, label):
        """Every scenario's verdict comes from its own tamper, on every
        preset: none trips over metadata an earlier scenario rolled back."""
        config = MachineConfig.preset(label, physical_bytes=TINY)
        machine = SecureMemorySystem(config)
        machine.boot()
        rows = len(SCENARIOS) if encryption_scheme(config.encryption).uses_counters else 3
        expected = dict(zip(SCENARIOS[:rows], MATRIX[config.integrity]))
        assert {r.scenario: r.detected for r in run_all(machine)} == expected

    def test_run_all_needs_five_pages(self):
        with pytest.raises(ValueError, match="5 data pages"):
            run_all(make_machine(data_bytes=4 * 4096))

    def test_bmt_with_global64_also_protects(self):
        machine = make_machine(encryption="global64", integrity="bonsai", data_bytes=TINY)
        assert replay_attack(machine).detected


class TestPassiveObservation:
    def test_ciphertext_never_leaks_plaintext(self):
        machine = make_machine(data_bytes=TINY)
        tamperer = MemoryTamperer(machine)
        secret = b"top secret bytes" * 4
        machine.write_block(0, secret)
        assert not tamperer.ciphertext_leaks_plaintext(0, secret)

    def test_unencrypted_machine_leaks(self):
        machine = make_machine(encryption="none", integrity="bonsai" if False else "none",
                               data_bytes=TINY)
        tamperer = MemoryTamperer(machine)
        secret = b"top secret bytes" * 4
        machine.write_block(0, secret)
        assert tamperer.ciphertext_leaks_plaintext(0, secret)


class TestTamperer:
    def test_attack_log(self):
        machine = make_machine(data_bytes=TINY)
        machine.write_block(0, b"\x01" * 64)
        tamperer = MemoryTamperer(machine)
        tamperer.spoof(0)
        snap = tamperer.snapshot(64)
        tamperer.replay(snap)
        assert [r.kind for r in tamperer.log] == ["spoof", "snapshot", "replay"]

    def test_splice_swaps_raw_blocks(self):
        machine = make_machine(data_bytes=TINY)
        machine.write_block(0, b"\x0a" * 64)
        machine.write_block(64, b"\x0b" * 64)
        tamperer = MemoryTamperer(machine)
        a_raw = tamperer.observe(0)
        b_raw = tamperer.observe(64)
        tamperer.splice(0, 64)
        assert tamperer.observe(0) == b_raw
        assert tamperer.observe(64) == a_raw

    def test_metadata_locators(self):
        machine = make_machine(data_bytes=TINY)
        tamperer = MemoryTamperer(machine)
        assert tamperer.counter_block(0) == machine.layout.counter_base
        assert machine.layout.mac_base <= tamperer.data_mac_block(0) < machine.layout.total_bytes

    def test_mac_locator_rejected_without_macs(self):
        machine = make_machine(integrity="merkle", data_bytes=TINY)
        tamperer = MemoryTamperer(machine)
        with pytest.raises(ValueError):
            tamperer.data_mac_block(0)
