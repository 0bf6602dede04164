"""Trace persistence (.npz), Dinero interchange, and the L1 front-end."""

import io

import numpy as np
import pytest

from repro.core.config import CacheConfig
from repro.sim.l1filter import filter_through_l1, l1_hit_rate
from repro.sim.trace import OP_READ, OP_WRITE, Trace
from repro.sim.traceio import dinero_from_text, dump_dinero, load_dinero, load_trace, save_trace
from repro.workloads.synthetic import resident_trace, streaming_trace


class TestNpzRoundTrip:
    def test_roundtrip(self, tmp_path):
        trace = streaming_trace(500, 1 << 20, seed=2, name="roundtrip")
        path = tmp_path / "trace.npz"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        assert loaded.name == "roundtrip"
        assert np.array_equal(loaded.gaps, trace.gaps)
        assert np.array_equal(loaded.ops, trace.ops)
        assert np.array_equal(loaded.addresses, trace.addresses)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path, version=np.asarray([99]), name=np.asarray(["x"]),
            gaps=np.zeros(1, np.uint32), ops=np.zeros(1, np.uint8),
            addresses=np.zeros(1, np.uint64),
        )
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestDinero:
    def test_parse_basic(self):
        trace = dinero_from_text("0 1000\n1 2000\n2 3000\n")
        assert list(trace.ops) == [OP_READ, OP_WRITE, OP_READ]  # ifetch -> read
        assert list(trace.addresses) == [0x1000, 0x2000, 0x3000]

    def test_comments_and_blanks_skipped(self):
        trace = dinero_from_text("# header\n\n0 40\n  \n1 80\n")
        assert len(trace) == 2

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            dinero_from_text("7 1000\n")

    def test_short_line_rejected(self):
        with pytest.raises(ValueError):
            dinero_from_text("0\n")

    def test_mean_gap_applied(self):
        trace = dinero_from_text("0 0\n0 40\n", mean_gap=25)
        assert list(trace.gaps) == [25, 25]

    def test_file_roundtrip(self, tmp_path):
        trace = dinero_from_text("0 1000\n1 2040\n")
        path = tmp_path / "out.din"
        dump_dinero(trace, str(path))
        again = load_dinero(str(path))
        assert list(again.ops) == list(trace.ops)
        assert list(again.addresses) == list(trace.addresses)

    def test_handle_input(self):
        trace = load_dinero(io.StringIO("0 abc0\n"), name="stream")
        assert trace.name == "stream"
        assert trace.addresses[0] == 0xABC0

    def test_end_to_end_simulation(self):
        """A Dinero trace drives the simulator through the L1 filter."""
        from repro.core.config import MachineConfig
        from repro.sim.simulator import TimingSimulator

        lines = "".join(f"0 {i * 64:x}\n" for i in range(2000))
        raw = dinero_from_text(lines)
        l2_trace = filter_through_l1(raw)
        result = TimingSimulator(MachineConfig.preset("aise+bmt")).run(l2_trace, warmup=0.0)
        assert result.cycles > 0


class TestL1Filter:
    def test_repeated_block_filtered_out(self):
        raw = Trace.from_lists([(1, OP_READ, 0)] * 100)
        filtered = filter_through_l1(raw)
        assert len(filtered) == 1  # one compulsory miss

    def test_gaps_accumulate_across_hits(self):
        raw = Trace.from_lists([(10, OP_READ, 0)] * 5 + [(10, OP_READ, 64)])
        filtered = filter_through_l1(raw)
        assert len(filtered) == 2
        # 4 hits after the first miss contribute their gaps + retire slots.
        assert filtered.gaps[1] == 4 * 10 + 4 + 10

    def test_distinct_blocks_pass_through(self):
        raw = Trace.from_lists([(1, OP_READ, i * 64) for i in range(100)])
        filtered = filter_through_l1(raw, l1=CacheConfig(4096, 2, 2))
        reads = [a for o, a in zip(filtered.ops, filtered.addresses) if o == OP_READ]
        assert len(reads) == 100

    def test_dirty_evictions_become_writes(self):
        l1 = CacheConfig(2 * 64, 1, 2)  # 2 direct-mapped lines
        raw = Trace.from_lists([
            (1, OP_WRITE, 0),
            (1, OP_READ, 128),  # same set as 0 -> evicts dirty 0
        ])
        filtered = filter_through_l1(raw, l1=l1)
        pairs = list(zip(filtered.ops.tolist(), filtered.addresses.tolist()))
        assert (OP_WRITE, 0) in pairs

    def test_hit_rate_helper(self):
        raw = resident_trace(5000, footprint_bytes=8 * 1024, seed=3)
        assert l1_hit_rate(raw) > 0.9  # 8KB working set in a 32KB L1

    def test_streaming_hit_rate_reflects_block_reuse(self):
        raw = streaming_trace(5000, 4 << 20, seed=4)
        rate = l1_hit_rate(raw)
        assert rate < 0.2  # block-granular stream: almost no reuse
