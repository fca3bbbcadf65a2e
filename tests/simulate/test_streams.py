"""Tests for the CUDA-stream overlap model against Equation (9)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.granularity import overlap_percentage
from repro.simulate.streams import (
    StreamBlock,
    kernel_time,
    simulate_stream_batch,
)
from repro.simulate.trace import Trace


def balanced_blocks(gpu, n=4, nbytes=1e7):
    """Blocks whose kernel time equals their PCI-E transfer time."""
    pcie_t = nbytes / (gpu.pcie_bandwidth * 1e9)
    # Find flops so the resident kernel takes exactly pcie_t.
    flops = pcie_t * gpu.peak_gflops * 1e9
    blk = StreamBlock(in_bytes=nbytes, flops=flops)
    assert kernel_time(gpu, blk) == pytest.approx(pcie_t, rel=0.2)
    return [blk] * n


class TestStreamBlock:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StreamBlock(in_bytes=-1.0, flops=1.0)

    def test_zero_flops_zero_kernel_time(self, delta):
        assert kernel_time(delta.gpu, StreamBlock(1e6, 0.0)) == 0.0


class TestSerialVsOverlap:
    def test_single_stream_equals_serialized_sum(self, delta):
        blocks = balanced_blocks(delta.gpu)
        t = simulate_stream_batch(delta.gpu, blocks, n_streams=1)
        serial = sum(
            (b.in_bytes + b.out_bytes) / (delta.gpu.pcie_bandwidth * 1e9)
            + kernel_time(delta.gpu, b)
            for b in blocks
        )
        assert t == pytest.approx(serial)

    def test_streams_beat_serial_for_balanced_blocks(self, delta):
        """'the stream approach can only improve application performance
        whose data transferring overhead is similar to computation
        overhead' — the balanced case must show a real win."""
        blocks = balanced_blocks(delta.gpu, n=6)
        serial = simulate_stream_batch(delta.gpu, blocks, n_streams=1)
        overlapped = simulate_stream_batch(delta.gpu, blocks, n_streams=4)
        assert overlapped < serial * 0.75

    def test_streams_useless_for_compute_dominated(self, delta):
        """op ~ 0: almost nothing to hide."""
        blk = StreamBlock(in_bytes=1e4, flops=1e11)  # huge AI
        blocks = [blk] * 4
        serial = simulate_stream_batch(delta.gpu, blocks, n_streams=1)
        overlapped = simulate_stream_batch(delta.gpu, blocks, n_streams=4)
        assert overlapped > serial * 0.95

    def test_overlap_never_slower_than_serial(self, delta):
        for nbytes, flops in [(1e6, 1e8), (1e7, 1e10), (1e5, 1e12)]:
            blocks = [StreamBlock(nbytes, flops)] * 5
            serial = simulate_stream_batch(delta.gpu, blocks, n_streams=1)
            overlapped = simulate_stream_batch(delta.gpu, blocks, n_streams=3)
            assert overlapped <= serial * (1 + 1e-9)

    def test_empty_batch_is_free(self, delta):
        assert simulate_stream_batch(delta.gpu, []) == 0.0


class TestEquationNineConsistency:
    """The simulated win from streaming must track Equation (9)'s op."""

    def test_savings_bounded_by_overlap_fraction(self, delta):
        gpu = delta.gpu
        nbytes, n = 1e7, 8
        for ai in (1.0, 50.0, 1000.0, 20000.0):
            flops = ai * nbytes
            blocks = [StreamBlock(nbytes, flops)] * n
            serial = simulate_stream_batch(gpu, blocks, n_streams=1)
            overlapped = simulate_stream_batch(gpu, blocks, n_streams=4)
            saving = 1.0 - overlapped / serial
            op = overlap_percentage(gpu, ai, nbytes)
            # Can never save more than the smaller of the two phases.
            assert saving <= min(op, 1.0 - op) + 0.05

    def test_makespan_lower_bound_is_bottleneck_engine(self, delta):
        """With deep overlap, time ~ max(total copy, total kernel)."""
        gpu = delta.gpu
        blocks = balanced_blocks(gpu, n=10)
        t = simulate_stream_batch(gpu, blocks, n_streams=10)
        copy_total = sum(b.in_bytes for b in blocks) / (gpu.pcie_bandwidth * 1e9)
        kern_total = sum(kernel_time(gpu, b) for b in blocks)
        assert t >= max(copy_total, kern_total) * (1 - 1e-9)
        assert t <= copy_total + kern_total


class TestHardwareQueueWindow:
    def test_fermi_window_allows_single_overlap(self, delta):
        """work_queues=1 -> at most 2 blocks in flight by default."""
        blocks = balanced_blocks(delta.gpu, n=8)
        natural = simulate_stream_batch(delta.gpu, blocks)  # window = 2
        wide = simulate_stream_batch(delta.gpu, blocks, n_streams=8)
        assert natural >= wide * (1 - 1e-9)

    def test_kepler_natural_window_deeper(self, delta, bigred2):
        blocks_f = balanced_blocks(delta.gpu, n=8)
        blocks_k = balanced_blocks(bigred2.gpu, n=8)
        f_gain = (simulate_stream_batch(delta.gpu, blocks_f, n_streams=1)
                  / simulate_stream_batch(delta.gpu, blocks_f))
        k_gain = (simulate_stream_batch(bigred2.gpu, blocks_k, n_streams=1)
                  / simulate_stream_batch(bigred2.gpu, blocks_k))
        # Hyper-Q reaches (or exceeds) Fermi's overlap efficiency.
        assert k_gain >= f_gain * 0.95


class TestTraceRecording:
    def test_trace_records_each_phase(self, delta):
        trace = Trace()
        blocks = [StreamBlock(1e6, 1e8, out_bytes=1e5)] * 3
        simulate_stream_batch(delta.gpu, blocks, trace=trace)
        kinds = {r.category for r in trace.records}
        assert kinds == {"h2d", "compute", "d2h"}
        assert len(trace.filter(kind="compute")) == 3

    def test_compute_intervals_never_overlap(self, delta):
        """One compute engine: kernel intervals must be disjoint."""
        trace = Trace()
        blocks = [StreamBlock(1e6, 1e9)] * 6
        simulate_stream_batch(delta.gpu, blocks, trace=trace, n_streams=6)
        intervals = sorted(
            (r.start, r.end) for r in trace.filter(kind="compute")
        )
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-12
