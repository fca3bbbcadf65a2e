"""Unit tests for DeviceSpec: roofline quantities and validation."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.hardware.device import CpuSpec, DeviceKind, DeviceSpec, GpuSpec
from tests.helpers import scaled


def make_gpu(peak=1000.0, dram=100.0, pcie=10.0, queues=1):
    return GpuSpec(
        name="g", peak_gflops=peak, dram_bandwidth=dram,
        pcie_bandwidth=pcie, cores=256, work_queues=queues,
    )


def make_cpu(peak=100.0, dram=25.0):
    return CpuSpec(name="c", peak_gflops=peak, dram_bandwidth=dram, cores=8)


class TestConstruction:
    def test_cpu_helper_sets_kind(self):
        assert make_cpu().kind is DeviceKind.CPU

    def test_gpu_helper_sets_kind(self):
        assert make_gpu().kind is DeviceKind.GPU

    def test_gpu_requires_pcie(self):
        with pytest.raises(ValueError, match="pcie"):
            DeviceSpec(name="g", kind=DeviceKind.GPU, peak_gflops=1.0,
                       dram_bandwidth=1.0)

    def test_cpu_rejects_pcie(self):
        with pytest.raises(ValueError, match="pcie"):
            DeviceSpec(name="c", kind=DeviceKind.CPU, peak_gflops=1.0,
                       dram_bandwidth=1.0, pcie_bandwidth=2.0)

    @pytest.mark.parametrize("field,value", [
        ("peak_gflops", 0.0), ("peak_gflops", -1.0),
        ("dram_bandwidth", 0.0), ("cores", 0), ("work_queues", 0),
    ])
    def test_rejects_nonpositive(self, field, value):
        kwargs = dict(name="g", kind=DeviceKind.GPU, peak_gflops=1.0,
                      dram_bandwidth=1.0, pcie_bandwidth=1.0)
        kwargs[field] = value
        with pytest.raises((ValueError, TypeError)):
            DeviceSpec(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_cpu().peak_gflops = 5.0


class TestEffectiveBandwidth:
    def test_cpu_is_dram(self):
        assert make_cpu(dram=25.0).effective_bandwidth() == 25.0

    def test_cpu_ignores_staged_flag(self):
        cpu = make_cpu()
        assert cpu.effective_bandwidth(True) == cpu.effective_bandwidth(False)

    def test_gpu_staged_is_harmonic_combination(self):
        gpu = make_gpu(dram=100.0, pcie=10.0)
        expected = 1.0 / (1.0 / 100.0 + 1.0 / 10.0)
        assert gpu.effective_bandwidth(staged=True) == pytest.approx(expected)

    def test_gpu_resident_is_dram(self):
        assert make_gpu(dram=100.0).effective_bandwidth(staged=False) == 100.0

    def test_staged_slower_than_resident(self):
        gpu = make_gpu()
        assert gpu.effective_bandwidth(True) < gpu.effective_bandwidth(False)


class TestRidgeAndAttainable:
    def test_ridge_point_definition(self):
        cpu = make_cpu(peak=100.0, dram=25.0)
        assert cpu.ridge_point() == pytest.approx(4.0)

    def test_attainable_below_ridge_is_bandwidth_bound(self):
        cpu = make_cpu(peak=100.0, dram=25.0)
        assert cpu.attainable_gflops(2.0) == pytest.approx(50.0)

    def test_attainable_above_ridge_is_peak(self):
        cpu = make_cpu(peak=100.0, dram=25.0)
        assert cpu.attainable_gflops(100.0) == 100.0

    def test_attainable_at_ridge_is_peak(self):
        cpu = make_cpu(peak=100.0, dram=25.0)
        assert cpu.attainable_gflops(cpu.ridge_point()) == pytest.approx(100.0)

    def test_staged_gpu_ridge_beyond_resident_ridge(self):
        gpu = make_gpu()
        assert gpu.ridge_point(staged=True) > gpu.ridge_point(staged=False)

    @given(
        peak=st.floats(1.0, 1e4), dram=st.floats(1.0, 500.0),
        pcie=st.floats(0.1, 32.0), ai=st.floats(0.01, 1e4),
    )
    def test_attainable_never_exceeds_either_roof(self, peak, dram, pcie, ai):
        gpu = make_gpu(peak=peak, dram=dram, pcie=pcie)
        for staged in (True, False):
            f = gpu.attainable_gflops(ai, staged)
            assert f <= peak + 1e-9
            assert f <= ai * gpu.effective_bandwidth(staged) + 1e-9
            assert f > 0

    @given(ai=st.floats(0.01, 1e4))
    def test_attainable_monotone_in_intensity(self, ai):
        gpu = make_gpu()
        assert gpu.attainable_gflops(ai * 2) >= gpu.attainable_gflops(ai)


class TestScaled:
    def test_scaled_changes_only_peak(self):
        gpu = make_gpu(peak=1000.0)
        faster = scaled(gpu, 2.0)
        assert faster.peak_gflops == 2000.0
        assert faster.dram_bandwidth == gpu.dram_bandwidth
        assert faster.pcie_bandwidth == gpu.pcie_bandwidth

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled(make_gpu(), 0.0)
