"""``service_mixed``: a seeded request mix against a long-lived service.

One op is one ``simulate`` request to an in-process
``serve_background(SweepService(cache_dir=<tmp>, sim_slots=1))`` from
two ``ServiceClient`` tenants in this process. Closed loop: the tenants
take turns, one request in flight, except for a *twin* step where both
send the same new cell at once and the service's single-flight gate
answers both from one simulation.

Working set: four memory-bound traces (they fit the server's 8-trace
store), each lowered in set-up for two presets (each trace memoizes two
lowerings). Set-up also pre-fills the disk tier with a sweep of three
other presets over the same traces into the server's cache directory.

Every block of 20 ops (19 steps, order shuffled by the seed) holds:

* 5 ``lru`` repeats of a cell already served (~1 ms),
* 1 ``disk`` hit on a pre-filled cell not yet served (~1-5 ms),
* 10 ``replay`` cells: a lowered trace at a new warmup/overlap, replayed
  by the compiled engine (~15-30 ms); each of the 8 lowered pairs once,
  plus the twin step's two ops,
* 4 ``lazy`` cells: ``aise+bmt_lazy`` on ``swim`` at new timing
  parameters, which runs on the per-event engine (~170 ms).

So the median falls 40% into the replay tier and p90 halfway into the
lazy tier. The seed picks the order, the repeated cells and the new
timing parameters. Set-up pre-fills 12 disk cells, one per block, so a
run stops after 12 blocks even if ``--seconds`` of op time have not yet
passed: every block it measures holds the mix above.

Checked (off the clock, after the phase): every answer equals
``repro.api.simulate`` for the same cell, and carries ``served_from``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from perfbench.harness import Op, Workload

EVENTS = 30_000
WORKING_SET = ("art", "mcf", "swim", "equake")
LOWERED = ("aise+bmt", "aise")
LAZY = "aise+bmt_lazy"
LAZY_TRACE = "swim"
DISK_PRESETS = ("base", "global32", "global64")
BASE_OVERLAP = 0.7
BASE_WARMUP = 0.25
# New timing parameters for replay and lazy cells. Two overlaps keep
# the warm pool (keyed by config and overlap) within its 8 machines.
OVERLAPS = (0.7, 0.8)
WARMUP_RANGE = (0.05, 0.45)
# One block: (tier, steps); the twin step carries two ops. The eight
# replay steps cover the eight lowered (trace, preset) pairs once each,
# and every lazy cell is on one trace, so each run measures the same
# mixture and the quantiles do not move between tier sub-bands.
BLOCK = (("lru", 5), ("disk", 1), ("replay", 8), ("twin", 1), ("lazy", 4))


def _canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


class ServiceMixed(Workload):
    name = "service_mixed"
    round_steps = sum(count for _tier, count in BLOCK)
    # One disk hit per block, from the cells pre-filled in set-up.
    max_rounds = len(WORKING_SET) * len(DISK_PRESETS)

    # -- set-up -----------------------------------------------------------------

    def setup(self, seed: int, gap) -> dict:
        import repro.api as api
        from repro.service.client import serve_background
        from repro.service.server import SweepService

        out = os.path.join(self.root, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=out)
        handle = serve_background(SweepService(cache_dir=cache_dir, sim_slots=1))
        ctx = {"api": api, "handle": handle, "cache_dir": cache_dir,
               "clients": [handle.client("tenant-a"), handle.client("tenant-b")],
               "helper": ThreadPoolExecutor(max_workers=1),
               "served": [], "disk": [], "checks": [],
               "references": {}, "reference_traces": {}}
        try:
            for i, (bench, preset) in enumerate(
                    (b, p) for b in WORKING_SET for p in LOWERED):
                cell = (bench, preset, BASE_OVERLAP, BASE_WARMUP)
                self._request(ctx["clients"][i % 2], cell)
                ctx["served"].append(cell)
                gap()
            for bench in WORKING_SET:
                api.sweep(configs=DISK_PRESETS, benchmarks=[bench], events=EVENTS,
                          cache_dir=cache_dir, overlap=BASE_OVERLAP,
                          warmup=BASE_WARMUP, workers=1)
                gap()
            ctx["disk"] = [(bench, preset, BASE_OVERLAP, BASE_WARMUP)
                           for bench in WORKING_SET for preset in DISK_PRESETS]
        except BaseException:
            self.close(ctx)
            raise
        ctx["client_threads"] = {threading.get_ident(),
                                 ctx["helper"].submit(threading.get_ident).result()}
        return ctx

    def close(self, ctx) -> None:
        for client in ctx["clients"]:
            client.close()
        ctx["helper"].shutdown(wait=True)
        ctx["handle"].stop()
        shutil.rmtree(ctx["cache_dir"], ignore_errors=True)

    # -- the mix ------------------------------------------------------------------

    def steps(self, ctx, seed: int):
        rng = random.Random(seed)
        used = set(ctx["served"]) | set(ctx["disk"])
        disk = list(ctx["disk"])
        rng.shuffle(disk)
        pairs = [(b, p) for b in WORKING_SET for p in LOWERED]
        twin_cycle: list = []
        tenant = 0

        def fresh(bench: str, preset: str) -> tuple:
            while True:
                cell = (bench, preset, rng.choice(OVERLAPS),
                        round(rng.uniform(*WARMUP_RANGE), 4))
                if cell not in used:
                    used.add(cell)
                    return cell

        while True:
            block = [tier for tier, count in BLOCK for _ in range(count)]
            rng.shuffle(block)
            replay_cycle = pairs[:]
            rng.shuffle(replay_cycle)
            for tier in block:
                if tier == "disk" and not disk:
                    raise RuntimeError("pre-filled disk cells used up: see max_rounds")
                if tier == "lru":
                    cell = rng.choice(ctx["served"])
                elif tier == "disk":
                    cell = disk.pop()
                elif tier == "replay":
                    cell = fresh(*replay_cycle.pop())
                elif tier == "twin":
                    if not twin_cycle:
                        twin_cycle = pairs[:]
                        rng.shuffle(twin_cycle)
                    cell = fresh(*twin_cycle.pop())
                else:
                    cell = fresh(LAZY_TRACE, LAZY)
                tenant ^= 1
                yield (tier, tenant, cell)
                ctx["served"].append(cell)

    @staticmethod
    def _request(client, cell) -> dict:
        bench, preset, overlap, warmup = cell
        return client.simulate(workload=bench, config=preset, events=EVENTS,
                               overlap=overlap, warmup=warmup)

    def _timed(self, client, cell, tier: str) -> Op:
        start = time.perf_counter()
        try:
            body = self._request(client, cell)
        except Exception as exc:  # a failed request is a failed op
            return Op(start=start, end=time.perf_counter(), tier=tier, ok=False,
                      error=repr(exc), data=(cell, None))
        return Op(start=start, end=time.perf_counter(), tier=tier, data=(cell, body))

    def run_step(self, ctx, spec, gap) -> list:
        tier, tenant, cell = spec
        clients = ctx["clients"]
        if tier != "twin":
            return [self._timed(clients[tenant], cell, tier)]
        other = ctx["helper"].submit(self._timed, clients[1], cell, "replay")
        mine = self._timed(clients[0], cell, "replay")
        return [mine, other.result()]

    # -- checks ---------------------------------------------------------------

    def check(self, ctx, spec, ops) -> None:
        for op in ops:
            if op.ok is None:
                ctx["checks"].append(op)

    def verify(self, ctx) -> None:
        """Compare each answer with ``repro.api.simulate`` of its cell.

        References run on this process's own traces, grouped by (trace,
        preset) so each trace's two-lowering memo is reused.
        """
        api = ctx["api"]
        pending = ctx["checks"]
        ctx["checks"] = []
        traces = ctx["reference_traces"]
        refs = ctx["references"]
        for op in sorted(pending, key=lambda op: op.data[0][:2]):
            cell, body = op.data
            if cell not in refs:
                bench, preset, overlap, warmup = cell
                trace = traces.get(bench)
                if trace is None:
                    trace = traces[bench] = api.load_trace(bench, EVENTS)
                refs[cell] = _canonical(api.simulate(
                    trace, preset, overlap=overlap, warmup=warmup, label=preset
                ).to_dict())
            if not body.get("served_from"):
                op.ok, op.error = False, f"{cell} answered without served_from"
            elif _canonical(body.get("result")) != refs[cell]:
                op.ok, op.error = False, f"{cell} differs from repro.api.simulate"
            else:
                op.ok = True
                op.data = (cell, body["served_from"])

    # -- counters ---------------------------------------------------------------

    def counters(self, ctx) -> dict:
        service = ctx["handle"].service
        return {"lru": service.lru.counts(), "pool": service.pool.counts(),
                "flight": service.flight.counts(), "disk": service.disk.counts(),
                "served": dict(service.served)}

    def report(self, ctx, phase) -> dict:
        served: dict[str, int] = {}
        for op in phase.ops:
            if op.ok:
                served[op.data[1]] = served.get(op.data[1], 0) + 1
        return {"served_from": served}

    def layer_counters(self, ctx, phase) -> dict:
        before, after = phase.before, phase.after

        def delta(group: str, name: str) -> int:
            return after[group][name] - before[group][name]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        lru_hits, disk_hits = delta("lru", "hits"), delta("disk", "hits")
        reused = delta("pool", "reused")
        return {
            "service.lru.hit_ratio": ratio(lru_hits, lru_hits + delta("lru", "misses")),
            "service.pool.reuse_ratio": ratio(reused, reused + delta("pool", "built")),
            "service.flight.coalesced": delta("flight", "coalesced"),
            "evalx.cache.hit_ratio": ratio(disk_hits, disk_hits + delta("disk", "misses")),
        }

