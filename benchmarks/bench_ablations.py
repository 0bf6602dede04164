"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one design decision of the paper and shows the
quantity that justifies it:

* **BMT's uncached data MACs** (section 5.2) — caching them re-creates
  L2 pollution without helping misses enough.
* **Counter-cache reach** — AISE's 64-counters-per-line layout vs the
  global schemes' stamps is where the encryption-only gap comes from.
* **Split counters vs AISE** — same storage layout, so AISE's system
  benefits come at zero additional overhead (Table 1's last row).
"""

from dataclasses import replace

from repro.core.config import MachineConfig
from repro.evalx.runner import Runner
from repro.sim.simulator import TimingSimulator
from repro.workloads.spec2k import spec_trace

from conftest import EVENTS, save_artifact

ABLATION_BENCHES = ("art", "mcf", "swim", "gcc")


def _overheads(config, label, events=EVENTS):
    rows = {}
    for bench in ABLATION_BENCHES:
        trace = spec_trace(bench, events)
        base = TimingSimulator(MachineConfig.preset("base")).run(trace, warmup=0.25)
        result = TimingSimulator(config).run(trace, warmup=0.25)
        rows[bench] = result.overhead_vs(base)
    rows["avg"] = sum(rows.values()) / len(rows)
    return rows


def test_ablation_cache_data_macs(benchmark, results_dir):
    """BMT deliberately does NOT cache per-block data MACs."""

    def run():
        default = _overheads(MachineConfig.preset("aise+bmt"), "bmt")
        cached = _overheads(MachineConfig.preset("aise+bmt", cache_data_macs=True), "bmt+cached-macs")
        return default, cached

    default, cached = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: caching per-block data MACs in the L2 (BMT)"]
    for bench in list(default):
        lines.append(f"  {bench:6} uncached={default[bench]:6.1%} cached={cached[bench]:6.1%}")
    text = "\n".join(lines)
    save_artifact(results_dir, "ablation_data_mac_caching.txt", text)
    print("\n" + text)
    # Caching the MACs costs more than it saves on memory-bound workloads.
    assert cached["avg"] >= default["avg"] - 0.005


def test_ablation_counter_cache_size(benchmark, results_dir):
    """Halving/doubling the 32KB counter cache moves the global schemes
    far more than AISE (reach is the whole story)."""

    def run():
        out = {}
        for kb in (8, 32, 128):
            for enc in ("aise", "global64"):
                config = MachineConfig(encryption=enc, integrity="none")
                config = replace(config, counter_cache=replace(config.counter_cache,
                                                               size_bytes=kb * 1024))
                out[(enc, kb)] = _overheads(config, f"{enc}/{kb}KB")["avg"]
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: counter cache size (avg overhead, 4 benches)"]
    for (enc, kb), value in sorted(out.items()):
        lines.append(f"  {enc:9} {kb:4}KB  {value:6.1%}")
    text = "\n".join(lines)
    save_artifact(results_dir, "ablation_counter_cache.txt", text)
    print("\n" + text)
    # AISE is nearly insensitive; global64 gains a lot from a bigger cache.
    aise_swing = out[("aise", 8)] - out[("aise", 128)]
    g64_swing = out[("global64", 8)] - out[("global64", 128)]
    assert g64_swing > aise_swing


def test_ablation_overlap_factor(benchmark, results_dir):
    """Robustness: the BMT-vs-MT conclusion holds across the OOO-overlap
    modelling knob (the one free parameter of the timing model)."""

    def run():
        out = {}
        trace = spec_trace("art", EVENTS)
        for overlap in (0.5, 0.7, 0.9):
            base = TimingSimulator(MachineConfig.preset("base"), overlap=overlap).run(trace, warmup=0.25)
            mt = TimingSimulator(MachineConfig(encryption="aise", integrity="merkle"),
                                 overlap=overlap).run(trace, warmup=0.25)
            bmt = TimingSimulator(MachineConfig.preset("aise+bmt"), overlap=overlap).run(trace, warmup=0.25)
            out[overlap] = (mt.overhead_vs(base), bmt.overhead_vs(base))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: OOO overlap factor (art; MT vs BMT overhead)"]
    for overlap, (mt, bmt) in sorted(out.items()):
        lines.append(f"  overlap={overlap:.1f}  mt={mt:6.1%}  bmt={bmt:6.1%}")
    text = "\n".join(lines)
    save_artifact(results_dir, "ablation_overlap.txt", text)
    print("\n" + text)
    for mt, bmt in out.values():
        assert bmt < mt / 3


def test_ablation_dedicated_node_cache(benchmark, results_dir):
    """What would it cost to fix MT's pollution with hardware instead of
    shrinking the tree? A dedicated node cache vs the shared L2 vs BMT."""
    from repro.core.config import CacheConfig

    def run():
        out = {}
        out["mt shared-L2"] = _overheads(
            MachineConfig(encryption="aise", integrity="merkle"), "mt")
        out["mt +256KB node$"] = _overheads(
            MachineConfig(encryption="aise", integrity="merkle",
                          node_cache=CacheConfig(256 * 1024, 8, 10)), "mt+nc")
        out["aise+bmt"] = _overheads(MachineConfig.preset("aise+bmt"), "bmt")
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: dedicated Merkle-node cache vs shrinking the tree"]
    for label, rows in out.items():
        lines.append(f"  {label:16} avg={rows['avg']:6.1%}")
    text = "\n".join(lines)
    save_artifact(results_dir, "ablation_node_cache.txt", text)
    print("\n" + text)
    # Extra hardware helps MT, but the bonsai organization still wins
    # without spending any dedicated SRAM on nodes.
    assert out["mt +256KB node$"]["avg"] < out["mt shared-L2"]["avg"]
    assert out["aise+bmt"]["avg"] < out["mt +256KB node$"]["avg"] + 0.02


def test_ablation_multiprogramming(benchmark, results_dir):
    """Context-switch pressure: the encryption-only gap per access widens
    when several processes share the counter cache (CMP-era motivation)."""
    from repro.workloads.multiprogram import multiprogrammed_spec
    from repro.workloads.spec2k import spec_trace
    from repro.sim.simulator import TimingSimulator
    from repro.core.config import MachineConfig as MC

    def exposure_gap(trace):
        aise = TimingSimulator(MC(encryption="aise", integrity="none")).run(trace)
        g64 = TimingSimulator(MC(encryption="global64", integrity="none")).run(trace)
        return (g64.exposed_decrypt_cycles - aise.exposed_decrypt_cycles) / len(trace)

    def run():
        solo = exposure_gap(spec_trace("gcc", 30_000))
        mixed = exposure_gap(multiprogrammed_spec(("gcc", "vpr", "twolf"),
                                                  events_each=10_000, quantum=1500))
        return solo, mixed

    solo, mixed = benchmark.pedantic(run, rounds=1, iterations=1)
    text = ("Ablation: multiprogramming (exposed AES cycles/access, g64 - aise)\n"
            f"  solo gcc          {solo:8.1f} cy/access\n"
            f"  gcc+vpr+twolf     {mixed:8.1f} cy/access")
    save_artifact(results_dir, "ablation_multiprogramming.txt", text)
    print("\n" + text)
    assert mixed > solo
