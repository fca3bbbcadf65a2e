"""CUDA-stream style transfer/compute overlap (paper §III.B.3b).

"The CUDA stream can simultaneously execute a kernel, while performing
data transferring between the device and host memory."  We model a GPU as
two FIFO engines — a copy engine draining host->device (and device->host)
transfers over the PCI-E link, and a compute engine running one kernel at a
time — plus a limit on how many stream blocks may be in flight at once:
``work_queues + 1`` (Fermi's single hardware queue still lets one copy
overlap one kernel; Kepler Hyper-Q widens the window).

:func:`simulate_stream_batch` runs a batch of blocks through this model on
the DES engine and returns the makespan; the ablation benchmark
``bench_ablation_streams`` uses it to show the overlap behaviour Equation
(9) predicts, including the paper's observation that streams only help
"whose data transferring overhead is similar to computation overhead".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro._validation import require_nonnegative, require_positive_int
from repro.hardware.device import DeviceSpec
from repro.simulate.engine import Engine, Event
from repro.simulate.resources import Link, Resource
from repro.simulate.trace import Trace


@dataclass(frozen=True)
class StreamBlock:
    """One stream's unit of work: copy in, compute, copy out.

    ``flops`` is the kernel's flop count; ``in_bytes``/``out_bytes`` the
    host->device and device->host transfer sizes.  ``kernel_seconds``, when
    given, pins the kernel duration exactly (the device daemons compute it
    from the roofline with the application's true intensity — important for
    cached blocks whose ``in_bytes`` is 0 because nothing crosses PCI-E).
    """

    in_bytes: float
    flops: float
    out_bytes: float = 0.0
    kernel_seconds: float | None = None

    def __post_init__(self) -> None:
        require_nonnegative("in_bytes", self.in_bytes)
        require_nonnegative("flops", self.flops)
        require_nonnegative("out_bytes", self.out_bytes)
        if self.kernel_seconds is not None:
            require_nonnegative("kernel_seconds", self.kernel_seconds)


def kernel_time(gpu: DeviceSpec, block: StreamBlock) -> float:
    """Kernel execution seconds once the block is resident in GPU memory.

    Uses the resident roofline (GPU DRAM only): the PCI-E cost is paid
    explicitly by the copy engine, so charging it here too would double
    count.  A block's explicit ``kernel_seconds`` takes precedence.
    """
    if block.kernel_seconds is not None:
        return block.kernel_seconds
    if block.flops == 0:
        return 0.0
    nbytes = max(block.in_bytes, 1.0)
    intensity = block.flops / nbytes
    rate = gpu.attainable_gflops(intensity, staged=False)
    return block.flops / (rate * 1e9)


class GpuStreamEngine:
    """The two-engine GPU model shared by stream simulations."""

    def __init__(self, engine: Engine, gpu: DeviceSpec, name: str = "gpu") -> None:
        if not gpu.is_gpu:
            raise ValueError("GpuStreamEngine requires a GPU DeviceSpec")
        self.engine = engine
        self.gpu = gpu
        self.name = name
        assert gpu.pcie_bandwidth is not None
        # Copy engines: Tesla-class parts have two DMA engines, so an
        # inbound transfer can overlap an outbound one; with a single
        # engine both directions share one queue.
        self.h2d = Link(engine, gpu.pcie_bandwidth, name=f"{name}.h2d")
        if gpu.copy_engines >= 2:
            self.d2h = Link(engine, gpu.pcie_bandwidth, name=f"{name}.d2h")
        else:
            self.d2h = self.h2d
        self.compute = Resource(engine, capacity=1, name=f"{name}.compute")
        # In-flight window: Fermi (1 queue) overlaps one copy with one
        # kernel; Hyper-Q keeps many blocks in flight.
        self.inflight = Resource(
            engine, capacity=gpu.work_queues + 1, name=f"{name}.queues"
        )

    def run_block(
        self, block: StreamBlock, trace: Trace | None = None, label: str = "blk"
    ) -> Generator[Event, Any, None]:
        """Process fragment: h2d copy -> kernel -> d2h copy for one block."""
        yield from self.inflight.acquire()
        try:
            if block.in_bytes > 0:
                t0 = self.engine.now
                yield from self.h2d.transfer(block.in_bytes)
                if trace is not None:
                    trace.record(
                        label, self.name, "h2d", t0, self.engine.now,
                        nbytes=block.in_bytes,
                    )
            duration = kernel_time(self.gpu, block)
            yield from self.compute.acquire()
            try:
                t0 = self.engine.now
                yield self.engine.timeout(duration)
                if trace is not None:
                    trace.record(
                        label, self.name, "compute", t0, self.engine.now,
                        flops=block.flops, nbytes=block.in_bytes,
                    )
            finally:
                self.compute.release()
            if block.out_bytes > 0:
                t0 = self.engine.now
                yield from self.d2h.transfer(block.out_bytes)
                if trace is not None:
                    trace.record(
                        label, self.name, "d2h", t0, self.engine.now,
                        nbytes=block.out_bytes,
                    )
        finally:
            self.inflight.release()


def simulate_stream_batch(
    gpu: DeviceSpec,
    blocks: list[StreamBlock],
    *,
    trace: Trace | None = None,
    n_streams: int | None = None,
) -> float:
    """Makespan (seconds) of *blocks* issued across concurrent streams.

    ``n_streams=1`` forces fully serialized transfer+compute (the no-stream
    baseline); ``None`` uses the device's natural window
    (``work_queues + 1``).
    """
    if not blocks:
        return 0.0
    engine = Engine()
    streams = GpuStreamEngine(engine, gpu)
    if n_streams is not None:
        require_positive_int("n_streams", n_streams)
        streams.inflight = Resource(engine, capacity=n_streams, name="gpu.queues")
    procs = [
        engine.process(streams.run_block(b, trace, label=f"blk{i}"), name=f"s{i}")
        for i, b in enumerate(blocks)
    ]
    engine.run(engine.all_of(procs))
    return engine.now
