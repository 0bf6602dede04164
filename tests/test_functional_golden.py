"""The functional machine byte-matches its committed golden.

``benchmarks/functional_golden.py`` runs one seeded kernel workload (swap,
fork/COW, IPC, hibernate/resume) on five presets and digests DRAM, swap,
the root register, the DRAM access stream and the engine statistics. Any
change to the functional datapath must leave every digest unchanged,
with the fastpath gate on and off.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import fastpath

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "functional_golden.py"


def _load():
    spec = importlib.util.spec_from_file_location("functional_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load()


@pytest.mark.parametrize("gate", [True, False], ids=["fastpath", "reference"])
def test_functional_workload_matches_golden(gate):
    want = json.loads(golden.GOLDEN.read_text())
    with fastpath.forced(gate):
        got = golden.run_all()
        assert golden.differences(got, want) == []
    if gate:
        assert all(got[preset]["pad_cache"][0]["misses"] for preset in golden.PRESETS)


def test_golden_covers_the_paths_it_names():
    """The workload really swaps, breaks COW, resumes and walks trees."""
    want = json.loads(golden.GOLDEN.read_text())
    for preset, entry in want.items():
        first, second = entry["stats"]
        assert first["swap_outs"] and second["swap_ins"] > first["swap_ins"], preset
        assert second["cow_breaks"] > first["cow_breaks"], preset
        assert first["trusted_hits"] and second["trusted_hits"], preset
        assert entry["root"] is not None, preset
