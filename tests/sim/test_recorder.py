"""Recording functional workloads as timing traces."""

import pytest

from repro.sim import AccessRecorder, OP_READ, OP_WRITE, TimingSimulator
from repro.core import MachineConfig
from repro.osmodel import Kernel

from tests.conftest import make_machine

PAGE = 4096


class TestRecorder:
    def test_records_machine_accesses(self):
        machine = make_machine(data_bytes=16 * PAGE)
        with AccessRecorder(machine) as recorder:
            machine.write_block(0, b"\x01" * 64)
            machine.read_block(0)
        trace = recorder.to_trace("unit")
        pairs = list(zip(trace.ops.tolist(), trace.addresses.tolist()))
        assert (OP_WRITE, 0) in pairs
        assert (OP_READ, 0) in pairs

    def test_metadata_accesses_filtered_out(self):
        machine = make_machine(data_bytes=16 * PAGE)
        with AccessRecorder(machine) as recorder:
            machine.write_block(0, b"\x01" * 64)
        # Raw log includes counter/MAC/tree traffic; the trace does not.
        assert any(addr >= machine.layout.data_bytes for _, addr in recorder.raw_events)
        assert (trace := recorder.to_trace()).addresses.max() < machine.layout.data_bytes
        assert len(trace) < len(recorder.raw_events)

    def test_stop_detaches(self):
        machine = make_machine(data_bytes=16 * PAGE)
        recorder = AccessRecorder(machine)
        recorder.start()
        machine.write_block(0, bytes(64))
        recorder.stop()
        before = len(recorder.raw_events)
        machine.write_block(64, bytes(64))
        assert len(recorder.raw_events) == before

    def test_double_attach_rejected(self):
        machine = make_machine(data_bytes=16 * PAGE)
        with AccessRecorder(machine):
            with pytest.raises(RuntimeError):
                AccessRecorder(machine).start()

    def test_unstarted_recorder_raises(self):
        machine = make_machine(data_bytes=16 * PAGE)
        with pytest.raises(RuntimeError):
            AccessRecorder(machine).to_trace()


class TestKernelWorkloadReplay:
    def test_os_workload_replays_on_the_timing_model(self):
        """End-to-end bridge: run an OS workload functionally, record it,
        and replay the stream under two timing configurations."""
        machine = make_machine(data_bytes=32 * PAGE, swap_bytes=64 * PAGE)
        kernel = Kernel(machine, swap_slots=64)
        proc = kernel.create_process()
        kernel.mmap(proc.pid, 0x10000, 8)
        with AccessRecorder(machine) as recorder:
            for i in range(8):
                kernel.write(proc.pid, 0x10000 + i * PAGE, bytes([i]) * 256)
            for i in range(8):
                kernel.read(proc.pid, 0x10000 + i * PAGE, 256)
        trace = recorder.to_trace("os-workload")
        assert len(trace) > 0
        base = TimingSimulator(MachineConfig.preset("base")).run(trace, warmup=0.0)
        protected = TimingSimulator(MachineConfig.preset("aise+bmt")).run(trace, warmup=0.0)
        assert protected.cycles >= base.cycles > 0
