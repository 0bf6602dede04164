"""Live runs byte-match their committed golden.

``benchmarks/reference_golden.py`` runs what the memoized replay never
serves: the ``aise+bmt_lazy`` cell of every figure-6 benchmark, and a
warm second ``run()`` of every figure-6 preset on art, mcf and swim. The
figure-6 golden pins cold sweeps, which replay memoized lowerings; this
one pins live runs: the walk of the simulator's own caches, the deferred
queue and its trailing drain, and their replay.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core import sanitizer

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "reference_golden.py"


def _load():
    spec = importlib.util.spec_from_file_location("reference_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load()


@pytest.fixture
def disarmed():
    """The golden pins model bytes, which arming changes nowhere (see the
    ``sanitizer_armed`` case of ``TestEngineChoice``); armed, its
    whole-cache recounts make the 63 runs take minutes instead of seconds.
    Which engine each kind of cell takes (``deferred_updates``,
    ``warm_caches``) is checked there too."""
    previous = sanitizer.active()
    sanitizer.disarm()
    yield
    if previous is not None:
        sanitizer.arm(previous)


def test_reference_runs_match_golden(disarmed):
    got = golden.run_all()
    want = json.loads(golden.GOLDEN.read_text())
    assert sorted(set(got["cells"]) ^ set(want["cells"])) == []
    differing = [name for name, cell in want["cells"].items()
                 if got["cells"][name] != cell]
    assert differing == []
    assert golden.dumps(got) == golden.GOLDEN.read_text()


def test_golden_covers_every_figure6_benchmark_and_preset():
    cells = json.loads(golden.GOLDEN.read_text())["cells"]
    benchmarks, presets = golden.figure6_axes()
    assert len(benchmarks) == 21 and len(presets) == 7
    assert {f"{bench}/{golden.LAZY}/cold" for bench in benchmarks} <= set(cells)
    assert {f"{bench}/{label}/warm" for bench in golden.WARM_BENCHMARKS
            for label in presets} <= set(cells)
    assert len(cells) == 21 + 3 * 7

