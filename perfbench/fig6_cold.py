"""``fig6_cold``: regenerate the paper's figure 6, cold, cell by cell.

One op is one cell of the committed golden
(``benchmarks/golden/figure6-events30000.json``: 21 SPEC profiles x 7
canonical presets, 30 000-event traces). Each step is one benchmark row
through ``repro.api.sweep(workers=1)`` with no cache directory, so every
cell generates, lowers and replays from nothing. A progress sink marks
the cell boundaries (``cell_done``) and lets the harness take its
calibration slices there, between cells. The seed orders the rows of
each pass. A round is two passes over the whole figure (294 ops, about
20 s each): every seed measures the same cells, and the second pass
halves the cell-to-cell timing noise in p50 and p90. A traced run
traces one pass.

Checked: every cell byte-equal (sorted-key JSON) to its golden cell.
"""

from __future__ import annotations

import json
import os
import random
import time

from perfbench.harness import Op, Workload

EVENTS = 30_000
GOLDEN = os.path.join("benchmarks", "golden", "figure6-events30000.json")
# Set-up exercises the pipeline once on the cheapest cell, so lazy
# first-call work lands in set-up rather than in the first op.
WARMUP_CELL = ("eon", "base")


def _cell_key(bench: str, label: str) -> str:
    return f"{bench}/{label}/default"


def _canonical(cell: dict) -> str:
    return json.dumps(cell, sort_keys=True)


class Fig6Cold(Workload):
    name = "fig6_cold"
    round_steps = 2 * 21
    trace_cap_steps = 21

    def setup(self, seed: int, gap) -> dict:
        import repro.api as api

        with open(os.path.join(self.root, GOLDEN)) as f:
            golden = json.load(f)
        expected = {key: _canonical(cell) for key, cell in golden["cells"].items()}
        bench, label = WARMUP_CELL
        run = api.sweep(configs=[label], benchmarks=[bench], events=EVENTS, workers=1)
        cell = run.to_payload()["cells"][_cell_key(bench, label)]
        if _canonical(cell) != expected[_cell_key(bench, label)]:
            raise RuntimeError("warm-up cell differs from the golden")
        return {"api": api, "expected": expected,
                "benchmarks": tuple(golden["benchmarks"]),
                "configs": tuple(golden["configs"])}

    def steps(self, ctx, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(ctx["benchmarks"])
            rng.shuffle(order)
            yield from order

    def run_step(self, ctx, bench: str, gap) -> list:
        from repro.obs.fleet import CallbackProgressSink

        ops: list[Op] = []
        started = [time.perf_counter()]

        def on_record(record: dict) -> None:
            if record["event"] != "cell_done":
                return
            end = time.perf_counter()
            ops.append(Op(start=started[0], end=end, tier="cell",
                          data=_cell_key(record["bench"], record["label"])))
            gap()
            started[0] = time.perf_counter()

        try:
            run = ctx["api"].sweep(benchmarks=[bench], events=EVENTS, workers=1,
                                   live_sinks=[CallbackProgressSink(on_record)])
            cells = run.to_payload()["cells"]
        except Exception as exc:  # the op raised: every unfinished cell fails
            now = time.perf_counter()
            done = {op.data for op in ops}
            for label in ctx["configs"]:
                key = _cell_key(bench, label)
                if key not in done:
                    ops.append(Op(start=started[0], end=now, tier="cell", data=key,
                                  ok=False, error=repr(exc)))
            cells = {}
        for op in ops:
            if op.ok is None:
                op.data = (op.data, cells.get(op.data))
        return ops

    def check(self, ctx, bench, ops) -> None:
        expected = ctx["expected"]
        for op in ops:
            if op.ok is not None:
                continue
            key, cell = op.data
            op.ok = cell is not None and _canonical(cell) == expected.get(key)
            if not op.ok:
                op.error = f"{key} differs from the golden"
            op.data = key
