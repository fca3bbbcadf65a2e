"""Device specifications for CPUs and GPUs.

A :class:`DeviceSpec` carries the roofline parameters of Table 2 in the
paper: peak performance (``P_c`` / ``P_g``), DRAM bandwidth (``B_dram``)
and, for GPUs, PCI-E bandwidth (``B_pcie``).  Two derived quantities are
exposed because the analytic scheduler uses them constantly:

* ``effective_bandwidth(staged)`` — the serial-transfer bandwidth seen by a
  task.  For a CPU this is DRAM bandwidth.  For a GPU whose input begins in
  *host* memory (``staged=True``) a byte must cross PCI-E and then GPU DRAM,
  so the effective bandwidth is the harmonic combination
  ``1 / (1/B_dram + 1/B_pcie)`` — this is exactly the aggregated slope of
  the left arm of the GPU roofline in Figure 3 of the paper (Equation 7).
* ``ridge_point(staged)`` — the arithmetic intensity ``A_cr`` / ``A_gr`` at
  which the bandwidth roof meets the compute roof.

Units used throughout the package: GFLOP/s for compute rates, GB/s for
bandwidths, flops-per-byte for arithmetic intensity, bytes for sizes and
seconds for times (1 GB = 1e9 bytes, 1 GFLOP = 1e9 flops, so
``bytes / (GB/s * 1e9) = seconds`` and ``flops / (GFLOP/s * 1e9) =
seconds``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro._validation import require_positive, require_positive_int


class DeviceKind(enum.Enum):
    """Processor class: latency-optimized CPU or throughput-optimized GPU."""

    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class DeviceSpec:
    """Roofline description of one compute device.

    Parameters
    ----------
    name:
        Human-readable model name, e.g. ``"Tesla C2070"``.
    kind:
        :class:`DeviceKind` of the device.
    peak_gflops:
        Peak floating-point rate ``P`` in GFLOP/s.
    dram_bandwidth:
        Bandwidth of the device's own DRAM in GB/s (``B_dram``).
    pcie_bandwidth:
        Effective host<->device PCI-E bandwidth in GB/s (``B_pcie``);
        ``None`` for CPUs, which sit on the host side of the bus.
    cores:
        Number of hardware cores (CPU cores or CUDA cores).  Used by the
        sub-task scheduler to choose CPU block counts and by reporting.
    memory_bytes:
        Device memory capacity in bytes.
    work_queues:
        Number of independent hardware work queues; 1 models Fermi's single
        queue, larger values model Kepler Hyper-Q (paper §III.B.3b).
    copy_engines:
        DMA copy engines.  Tesla-class parts (C2070, K20) have two, so a
        host-to-device transfer can overlap a device-to-host one; one
        engine serializes all PCI-E traffic (GeForce-class).
    """

    name: str
    kind: DeviceKind
    peak_gflops: float
    dram_bandwidth: float
    pcie_bandwidth: float | None = None
    cores: int = 1
    memory_bytes: int = 4 * 1024**3
    work_queues: int = 1
    copy_engines: int = 1

    def __post_init__(self) -> None:
        require_positive("peak_gflops", self.peak_gflops)
        require_positive("dram_bandwidth", self.dram_bandwidth)
        require_positive_int("cores", self.cores)
        require_positive_int("work_queues", self.work_queues)
        require_positive_int("memory_bytes", self.memory_bytes)
        require_positive_int("copy_engines", self.copy_engines)
        if self.kind is DeviceKind.GPU:
            if self.pcie_bandwidth is None:
                raise ValueError("GPU devices must declare pcie_bandwidth")
            require_positive("pcie_bandwidth", self.pcie_bandwidth)
        elif self.pcie_bandwidth is not None:
            raise ValueError("CPU devices must not declare pcie_bandwidth")

    # ------------------------------------------------------------------
    # Roofline-derived quantities
    # ------------------------------------------------------------------
    def effective_bandwidth(self, staged: bool = True) -> float:
        """Bandwidth (GB/s) at which one byte of input reaches the ALUs.

        For a GPU with ``staged=True`` the byte travels host DRAM -> PCI-E
        -> GPU DRAM serially, so the time per byte is ``1/B_pcie +
        1/B_dram`` (Equation 7, first branch).  ``staged=False`` models the
        iterative-application case of paper §III.C.3 and §IV.B, where the
        loop-invariant input is already resident in GPU memory and only GPU
        DRAM bandwidth matters.  CPUs always read at host DRAM bandwidth.
        """
        if self.kind is DeviceKind.CPU or not staged:
            return self.dram_bandwidth
        assert self.pcie_bandwidth is not None
        return 1.0 / (1.0 / self.dram_bandwidth + 1.0 / self.pcie_bandwidth)

    def ridge_point(self, staged: bool = True) -> float:
        """Arithmetic intensity (flops/byte) where bandwidth meets compute.

        This is ``A_cr`` for CPUs and ``A_gr`` for GPUs in the paper:
        below the ridge the task is bandwidth bound, at or above it the
        device can run at peak.
        """
        return self.peak_gflops / self.effective_bandwidth(staged)

    def attainable_gflops(self, intensity: float, staged: bool = True) -> float:
        """Roofline-attainable rate ``F`` for a task of given intensity.

        Implements Equations (6)/(7): ``F = min(P, A * B_effective)``.
        """
        require_positive("intensity", intensity)
        return min(self.peak_gflops, intensity * self.effective_bandwidth(staged))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def is_gpu(self) -> bool:
        return self.kind is DeviceKind.GPU


def CpuSpec(
    name: str,
    peak_gflops: float,
    dram_bandwidth: float,
    cores: int,
    memory_bytes: int = 64 * 1024**3,
) -> DeviceSpec:
    """Construct a CPU :class:`DeviceSpec` (keyword-light helper)."""
    return DeviceSpec(
        name=name,
        kind=DeviceKind.CPU,
        peak_gflops=peak_gflops,
        dram_bandwidth=dram_bandwidth,
        cores=cores,
        memory_bytes=memory_bytes,
    )


def GpuSpec(
    name: str,
    peak_gflops: float,
    dram_bandwidth: float,
    pcie_bandwidth: float,
    cores: int,
    memory_bytes: int = 5 * 1024**3,
    work_queues: int = 1,
    copy_engines: int = 1,
) -> DeviceSpec:
    """Construct a GPU :class:`DeviceSpec` (keyword-light helper)."""
    return DeviceSpec(
        name=name,
        kind=DeviceKind.GPU,
        peak_gflops=peak_gflops,
        dram_bandwidth=dram_bandwidth,
        pcie_bandwidth=pcie_bandwidth,
        cores=cores,
        memory_bytes=memory_bytes,
        work_queues=work_queues,
        copy_engines=copy_engines,
    )
