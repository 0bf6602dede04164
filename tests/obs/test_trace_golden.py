"""Traced runs byte-match their committed golden.

``benchmarks/trace_golden.py`` traces eight scheme cells on two
workloads and digests each cell's JSONL event stream and snapshots file
the way ``repro trace --jsonl/--snapshots`` writes them. The digests pin
every obs emission point of the per-miss walk, in order, and every
interval snapshot; the per-name event counts and the ``SimResult`` make
a mismatch name the cell and the event that moved. The clock oracle,
running the section-6 rules one event at a time, writes the same bytes.
"""

import importlib.util
import json
from pathlib import Path
from unittest import mock

from repro import fastpath
from tests.sim import clock_oracle

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "trace_golden.py"


def _load():
    spec = importlib.util.spec_from_file_location("trace_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load()


def test_traced_runs_match_golden():
    got = golden.run_all()
    want = json.loads(golden.GOLDEN.read_text())
    assert golden.differences(want, got) == []
    assert golden.dumps(got) == golden.GOLDEN.read_text()


def test_the_clock_oracle_writes_the_golden():
    with mock.patch.object(fastpath, "execute", clock_oracle.execute):
        got = golden.run_all()
    assert golden.differences(json.loads(golden.GOLDEN.read_text()), got) == []


def test_golden_exercises_every_emission_point():
    cells = json.loads(golden.GOLDEN.read_text())["cells"]
    assert len(cells) == 2 * len(golden.cells())
    seen = set()
    for cell in cells.values():
        seen.update(cell["event_counts"])
    assert {"bus_grant", "counter_miss", "merkle_fetch", "decrypt_exposed",
            "l2_miss"} <= seen
    # The conflict workload reaches the writeback chains and the lazy
    # tree's drains and coalescing within its 2,000 events.
    lazy = cells["conflict/aise+bmt_lazy"]["result"]
    assert lazy["metrics"]["sim.tree_drains"] > 0
    assert lazy["metrics"]["sim.tree_coalesced_walks"] > 0
    for kind in ("data_wb", "counter_wb", "merkle_wb", "mac_wb"):
        assert lazy["bus_transfers_by_kind"][kind] > 0
