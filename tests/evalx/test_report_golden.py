"""EXPERIMENTS.md's measured numbers are the committed evaluation's.

``benchmarks/golden/report-events120000.json`` holds every table and
figure of ``python -m repro.evalx.report --events 120000`` at full
precision (``benchmarks/report_golden.py`` regenerates it; CI diffs a
fresh run against it). This test runs no simulation: it rebuilds, from
that JSON, the "measured" cell of every row of EXPERIMENTS.md's tables,
rounded as printed, and compares it with the prose. A model change that
moves a quoted number fails here until the golden and the prose move
together.
"""

import json
import math
from pathlib import Path

import pytest

from repro.workloads.spec2k import MEMORY_BOUND

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "benchmarks" / "golden" / "report-events120000.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def measured_cells() -> dict:
    """``{section: {row: measured cell}}`` from EXPERIMENTS.md's tables.

    A section is the text after ``## `` up to its em dash; a row below a
    table's header is keyed by its first cell (Table 2's by its first
    two), and its measured cell is the last one, with bold markup dropped.
    """
    sections: dict = {}
    rows = None
    previous = ""
    for line in EXPERIMENTS.read_text().splitlines():
        header = not previous.startswith("|")
        previous = line
        if line.startswith("## "):
            rows = sections.setdefault(line[3:].split(" — ")[0], {})
        elif (rows is not None and line.startswith("|") and not header
              and "---" not in line):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            key = tuple(cells[:2]) if len(cells) == 4 and cells[0].endswith("b") \
                else cells[0]
            rows[key] = cells[-1].replace("**", "")
    return sections


def pct(value: float, digits: int = 1) -> str:
    return f"{value * 100:.{digits}f}%"


def subset_mean(series: dict) -> float:
    return sum(series[bench] for bench in MEMORY_BOUND) / len(MEMORY_BOUND)


def worst(series: dict, pick) -> tuple:
    bench = pick((b for b in series if b != "avg"), key=series.__getitem__)
    return series[bench], bench


def expected_cells() -> dict:
    """The same cells, rebuilt from the committed golden."""
    exports = json.loads(GOLDEN.read_text())["exports"]

    def series(figure):
        return exports[f"figure{figure}"]["series"]

    scheme = {"global64+mt": "global64+MT", "aise+bmt": "AISE+BMT"}
    table2 = {(row["MAC size"], scheme[row["Scheme"]]): f"{row['Total %']:.2f}%"
              for row in exports["table2"]["rows"]}

    bmt6, mt6 = series(6)["aise+bmt"], series(6)["global64+mt"]
    bmt_max, mt_max = worst(bmt6, max), worst(mt6, max)
    figure6 = {
        "AISE+BMT average": pct(bmt6["avg"]),
        "AISE+BMT maximum": f"{pct(bmt_max[0])} ({bmt_max[1]})",
        "global64+MT average": pct(mt6["avg"]),
        "global64+MT maximum": f"{pct(mt_max[0], 0)} ({mt_max[1]})",
    }

    figure7 = {label: pct(series(7)[key]["avg"]) for label, key in
               (("AISE", "aise"), ("global-32", "global32"), ("global-64", "global64"))}

    mt8, bmt8 = series(8)["aise+mt"], series(8)["aise+bmt"]
    mt_bound = [mt8[bench] for bench in MEMORY_BOUND]
    figure8 = {
        "AISE+MT average": pct(mt8["avg"]),
        "AISE+BMT average": pct(bmt8["avg"]),
        "memory-bound MT range": f"{min(mt_bound) * 100:.0f}–{pct(max(mt_bound), 0)}",
        "memory-bound BMT range":
            f"<{math.ceil(max(bmt8[bench] for bench in MEMORY_BOUND) * 100)}%",
    }

    mt9 = series(9)["aise+mt"]
    mt9_worst = worst(mt9, min)
    figure9 = {
        "MT average": pct(mt9["avg"]),
        "MT worst": f"{pct(mt9_worst[0], 0)} ({mt9_worst[1]})",
        "BMT average": pct(series(9)["aise+bmt"]["avg"]),
    }

    miss = series("10a")
    base, mt, bmt = (subset_mean(miss[key]) for key in ("base", "aise+mt", "aise+bmt"))
    avg = {key: miss[key]["avg"] for key in miss}
    bus = {key: pct(series("10b")[key]["avg"]) for key in ("base", "aise+mt", "aise+bmt")}
    figure10 = {
        "miss rate, base → MT":
            f"{pct(base)} → {pct(mt)} (+{(mt - base) * 100:.0f}pp, same subset); "
            f"all-21 {pct(avg['base'])} → {pct(avg['aise+mt'])} "
            f"(+{(avg['aise+mt'] - avg['base']) * 100:.1f}pp)",
        "miss rate, base → BMT":
            f"→ +{(bmt - base) * 100:.1f}pp (subset), "
            f"+{(avg['aise+bmt'] - avg['base']) * 100:.1f}pp (all 21)",
        "bus util, base → MT": f"{bus['base']} → {bus['aise+mt']}",
        "bus util, base → BMT": f"→ {bus['aise+bmt']}",
    }

    figure11 = {}
    for figure, quantity in (("11a", "overhead"), ("11b", "data occupancy")):
        for key, label in (("aise+mt", "MT"), ("aise+bmt", "BMT")):
            values = series(figure)[key]
            figure11[f"{label} {quantity} 32b → 256b"] = \
                f"{pct(values['32b'])} → {pct(values['256b'])}"

    return {"Table 2": table2, "Figure 6": figure6, "Figure 7": figure7,
            "Figure 8": figure8, "Figure 9": figure9, "Figure 10": figure10,
            "Figure 11": figure11}


EXPECTED = expected_cells()


@pytest.mark.parametrize("section", sorted(EXPECTED))
def test_measured_cells_are_the_goldens(section):
    prose = measured_cells()[section]
    for row, cell in EXPECTED[section].items():
        assert prose.get(row) == cell, (section, row)


def test_every_measured_row_is_checked():
    sections = measured_cells()
    for section, rows in EXPECTED.items():
        assert set(sections[section]) == set(rows), section


def test_golden_covers_every_export():
    exports = json.loads(GOLDEN.read_text())["exports"]
    assert set(exports) == {"table1", "table2"} | {
        f"figure{figure}" for figure in
        ("6", "7", "8", "9", "10a", "10b", "11a", "11b")}
