"""Unit tests for the roofline model (Figure 3)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.roofline import RooflineModel, roofline_curve


class TestRidgePoints:
    def test_delta_cpu_ridge(self, delta):
        # A_cr = 130 / 32 ~= 4.06 flops/byte
        model = RooflineModel(delta.cpu)
        assert model.ridge == pytest.approx(130.0 / 32.0)

    def test_delta_gpu_staged_ridge_far_right(self, delta):
        # With PCI-E staging A_gr is three orders beyond A_cr (Figure 3).
        cpu = RooflineModel(delta.cpu)
        gpu = RooflineModel(delta.gpu, staged=True)
        assert gpu.ridge > 100 * cpu.ridge

    def test_resident_ridge_is_dram_only(self, delta):
        gpu = RooflineModel(delta.gpu, staged=False)
        assert gpu.ridge == pytest.approx(1030.0 / 144.0)


class TestTime:
    def test_time_compute_bound(self, delta):
        model = RooflineModel(delta.cpu)
        # 130 GFLOP at AI far above ridge: exactly one second at peak.
        t = model.time(flops=130e9, nbytes=130e9 / 1000.0)
        assert t == pytest.approx(1.0)

    def test_time_bandwidth_bound(self, delta):
        model = RooflineModel(delta.cpu)
        # 32 GB at AI below ridge: one second at DRAM bandwidth.
        t = model.time(flops=32e9 * 2.0, nbytes=32e9)
        assert t == pytest.approx(1.0)

    def test_time_equals_max_of_transfer_and_compute(self, delta):
        model = RooflineModel(delta.gpu, staged=True)
        flops, nbytes = 1e12, 1e9
        t = model.time(flops, nbytes)
        transfer = nbytes / (model.bandwidth * 1e9)
        compute = flops / (model.peak * 1e9)
        assert t == pytest.approx(max(transfer, compute), rel=1e-9)

    @given(flops=st.floats(1e3, 1e15), nbytes=st.floats(1e3, 1e12))
    def test_time_positive_and_bounded_below(self, delta, flops, nbytes):
        model = RooflineModel(delta.gpu, staged=True)
        t = model.time(flops, nbytes)
        assert t >= flops / (model.peak * 1e9) - 1e-15
        assert t >= nbytes / (model.bandwidth * 1e9) * (1 - 1e-12)


class TestCurve:
    def test_curve_shape(self, delta):
        ais, perf = roofline_curve(delta.gpu)
        assert ais.shape == perf.shape
        assert np.all(np.diff(perf) >= -1e-9)  # monotone non-decreasing

    def test_curve_saturates_at_peak(self, delta):
        _, perf = roofline_curve(delta.gpu, hi=2.0**14)
        assert perf[-1] == pytest.approx(delta.gpu.peak_gflops)

    def test_curve_left_arm_is_linear_in_ai(self, delta):
        ais, perf = roofline_curve(delta.cpu, lo=2.0**-4, hi=1.0)
        np.testing.assert_allclose(perf, ais * 32.0, rtol=1e-12)

    def test_curve_rejects_bad_range(self, delta):
        with pytest.raises(ValueError):
            roofline_curve(delta.cpu, lo=4.0, hi=2.0)
