"""GPU and CPU device daemons (paper §III.C.1).

"It spawns one daemon thread for each GPU card and one daemon thread for
all assigned CPU cores in the host. [...] The PRS also makes use of
Pthreads to schedule tasks on CPU cores.  Each thread runs one mapper or
reducer on each CPU core."

Here a daemon is a factory of DES process fragments operating on the
node's contended resources:

* :class:`CpuDaemon` — dispatches map/reduce blocks onto the node's core
  pool; each block holds one core for ``dispatch + flops / per-core-rate``
  seconds, where the per-core rate is the roofline-attainable CPU rate
  divided by the core count (all cores share DRAM bandwidth and the
  aggregate peak).
* :class:`GpuDaemon` — the single thread owning the GPU context
  (§III.C.3): issues stream blocks through the two-engine
  :class:`~repro.simulate.streams.GpuStreamEngine` (PCI-E copies overlap
  kernels), skipping host->device copies for loop-invariant cached input.

Both daemons execute the application's *functional* kernels (real NumPy)
while charging *simulated* time from the roofline models, so results are
numerically real and timings analytically faithful.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.hardware.node import FatNode
from repro.runtime.api import Block, MapReduceApp
from repro.runtime.job import JobConfig
from repro.runtime.memory import MALLOC_OVERHEAD_S, RegionAllocator
from repro.runtime.shuffle import KeyValue
from repro.simulate.engine import Engine, Event, Interrupt
from repro.simulate.faults import DeviceFault
from repro.simulate.resources import CorePool
from repro.simulate.streams import GpuStreamEngine, StreamBlock
from repro.simulate.trace import Trace

#: bookkeeping bytes reserved per emitted key/value object
_KV_OBJECT_BYTES = 96


class NodeResources:
    """The contended hardware of one fat node inside the simulation."""

    def __init__(self, engine: Engine, node: FatNode, n_gpus: int | None = None) -> None:
        self.engine = engine
        self.node = node
        self.cpu_pool = CorePool(engine, node.cpu.cores, name=f"{node.name}.cores")
        count = len(node.gpus) if n_gpus is None else min(n_gpus, len(node.gpus))
        self.gpu_engines = [
            GpuStreamEngine(engine, gpu, name=f"{node.name}.gpu{i}")
            for i, gpu in enumerate(node.gpus[:count])
        ]
        #: per-daemon-thread regions (§III.C.2); reset between stages
        self.allocator = RegionAllocator()
        #: live fault state (a :class:`repro.simulate.faults.FaultState`)
        #: when the job injects faults; None keeps every code path on the
        #: exact fault-free schedule.
        self.faults = None
        #: physical node index this resource set represents (stable across
        #: rank-restart incarnations)
        self.node_index = -1


def _deliver(sink: Any, block: Block, pairs: list[KeyValue]) -> None:
    """Hand a finished block's pairs to the sink.

    Sinks that define ``record_block`` (the scheduler's block-ordered
    sink) receive the block identity too, so emission order can be
    canonicalized regardless of which device finished first.
    """
    record = getattr(sink, "record_block", None)
    if record is not None:
        record(block, pairs)
    else:
        sink.extend(pairs)


def _log_kernel(daemon: Any, kind: str, block: Block, n_pairs: int) -> None:
    """Debug-level kernel/alloc narration for one finished map kernel."""
    log = daemon.trace.log
    if log is None or not log.wants_debug:
        return
    rank = daemon.res.node_index if daemon.res.node_index >= 0 else None
    if rank is None:
        rank = daemon.trace.rank_of(daemon.device_name)
    log.debug(
        "daemon",
        f"{kind} kernel done for [{block.start}:{block.stop})",
        t=daemon.res.engine.now,
        rank=rank,
        device=daemon.device_name,
        pairs=n_pairs,
    )


def _guarded_body(
    daemon: Any, block: Block, sink: Any
) -> Generator[Event, Any, Any]:
    """Run one map block, converting a fault Interrupt into a return value
    (so resource cleanup runs and the parent can report the failure)."""
    try:
        yield from daemon._map_block(block, sink)
        return None
    except Interrupt as intr:
        cause = intr.cause
        if not isinstance(cause, DeviceFault):
            cause = DeviceFault(daemon.device_name, "kill")
        return cause


def _report_failure(daemon: Any, block: Block, fatal: bool) -> None:
    """Narrate a device-level block failure into the event log (when one
    is attached; pure host bookkeeping) and hand the block to the
    scheduler's failure listener."""
    log = daemon.trace.log
    if log is not None:
        rank = daemon.res.node_index if daemon.res.node_index >= 0 else None
        log.emit(
            "error" if fatal else "warning",
            "daemon",
            f"map block [{block.start}:{block.stop}) faulted on "
            f"{daemon.device_name}",
            t=daemon.res.engine.now,
            rank=rank,
            device=daemon.device_name,
            fatal=fatal,
        )
    if daemon.fault_listener is not None:
        daemon.fault_listener(daemon, block, fatal)


def _run_guarded(
    daemon: Any, block: Block, sink: Any
) -> Generator[Event, Any, None]:
    """Fault-aware wrapper: race the block against the device's disruption
    event; on a fault, interrupt the in-flight work and report the failed
    block to the scheduler instead of losing it."""
    faults = daemon.res.faults
    engine = daemon.res.engine
    key = daemon.fault_key
    if faults.device_dead(key):
        _report_failure(daemon, block, fatal=True)
        return
    death = faults.disruption(key)
    work = engine.process(
        _guarded_body(daemon, block, sink), name=f"{daemon.device_name}.blk"
    )
    yield engine.any_of([work, death])
    if work.is_alive:
        work.interrupt(death.value)
    outcome = yield work
    if outcome is not None:
        _report_failure(daemon, block, fatal=faults.device_dead(key))


def run_map_block(
    daemon: Any, block: Block, sink: list[KeyValue]
) -> Generator[Event, Any, None]:
    """Process fragment: one map sub-task on *daemon* (a core of the CPU
    pool or one GPU stream); raced against device faults when the job
    injects them."""
    if daemon.res.faults is None:
        yield from daemon._map_block(block, sink)
    else:
        yield from _run_guarded(daemon, block, sink)


def _alloc_seconds(
    resources: NodeResources,
    thread_id: str,
    n_objects: int,
    use_region: bool,
) -> float:
    """Simulated cost of allocating *n_objects* intermediate KV records.

    With the region allocator only backing-buffer growth costs a malloc;
    without it every object pays one device-malloc (§III.C.2: "the
    aggregated overhead of the malloc operations can degrade the
    performance if many small memory allocation requests exist").
    """
    if n_objects <= 0:
        return 0.0
    if not use_region:
        return n_objects * MALLOC_OVERHEAD_S
    region = resources.allocator.region(thread_id)
    before = region.stats.backing_allocs
    for _ in range(n_objects):
        region.alloc(_KV_OBJECT_BYTES)
    return (region.stats.backing_allocs - before) * MALLOC_OVERHEAD_S


def _scoped(prof: Any, name: str, fn: Any, *args: Any) -> Any:
    """``fn(*args)``, inside host-profiler scope *name* when profiling."""
    if prof is None:
        return fn(*args)
    return prof.call(name, fn, *args)


def _map_kernel(
    daemon: Any, scope: str, kernel: Any, block: Block
) -> tuple[list[KeyValue], float]:
    """Run the functional map *kernel* on *block* and price the pairs it
    emits; returns ``(pairs, alloc_seconds)``.

    When profiling, the kernel runs under *scope* and the allocation
    under ``alloc:region``.
    """
    prof = daemon.trace.selfprof
    pairs = _scoped(prof, scope, kernel, block)
    alloc_s = _scoped(
        prof,
        "alloc:region",
        _alloc_seconds,
        daemon.res,
        daemon.device_name,
        len(pairs),
        daemon.config.use_region_allocator,
    )
    return pairs, alloc_s


class CpuDaemon:
    """The one daemon thread managing all CPU cores of a node."""

    def __init__(
        self,
        resources: NodeResources,
        app: MapReduceApp,
        config: JobConfig,
        trace: Trace,
    ) -> None:
        self.res = resources
        self.app = app
        self.config = config
        self.overheads = config.overheads
        self.trace = trace
        self.device_name = f"{resources.node.name}.cpu"
        #: fault-state device key + scheduler failure callback, wired by
        #: ``SubTaskScheduler.enable_faults`` (None in fault-free runs)
        self.fault_key: str | None = None
        self.fault_listener = None

    # ------------------------------------------------------------------
    def block_seconds(self, block: Block) -> float:
        """Simulated seconds one core needs for *block* (excl. dispatch)."""
        flops = self.app.map_flops(block)
        if flops <= 0:
            return 0.0
        nbytes = self.app.block_bytes(block)
        intensity = self.app.intensity().at(nbytes)
        cpu = self.res.node.cpu
        per_core = cpu.attainable_gflops(intensity) / cpu.cores
        return flops / (per_core * 1e9)

    def _map_block(
        self, block: Block, sink: list[KeyValue]
    ) -> Generator[Event, Any, None]:
        engine = self.res.engine
        yield from self.res.cpu_pool.acquire()
        try:
            start = engine.now
            # Flush pending sampling-grid instants at dispatch: the
            # block's own record only lands when it *ends*, which can be
            # many grid pitches away for coarse blocks.
            self.trace.tick(start)
            pairs, alloc_s = _map_kernel(
                self, "kernel:cpu-map", self.app.cpu_map, block
            )
            duration = (
                self.overheads.cpu_task_dispatch_s
                + self.block_seconds(block)
                + alloc_s
            )
            faults = self.res.faults
            if faults is not None:
                duration *= faults.compute_scale(self.fault_key, start)
            yield engine.timeout(duration)
            _log_kernel(self, "cpu-map", block, len(pairs))
            _deliver(sink, block, pairs)
            self.res.allocator.note_block(
                (block.start, block.stop), self.device_name
            )
            self.trace.record(
                f"map[{block.start}:{block.stop}]",
                self.device_name,
                "compute",
                start,
                engine.now,
                nbytes=self.app.block_bytes(block),
                flops=self.app.map_flops(block),
            )
        finally:
            self.res.cpu_pool.release()

    def run_map_blocks(
        self, blocks: list[Block], sink: list[KeyValue]
    ) -> Generator[Event, Any, None]:
        """Process fragment: run *blocks* across the core pool, await all."""
        engine = self.res.engine
        procs = [
            engine.process(run_map_block(self, b, sink), name="cpu-map")
            for b in blocks
        ]
        yield engine.all_of(procs)

    def run_reduce(
        self,
        groups: dict[Any, list[Any]],
        sink: dict[Any, Any],
    ) -> Generator[Event, Any, None]:
        """Process fragment: one reduce task per key group on the cores."""
        engine = self.res.engine

        def one(key: Any, values: list[Any]) -> Generator[Event, Any, None]:
            yield from self.res.cpu_pool.acquire()
            try:
                start = engine.now
                flops = self.app.reduce_flops(key, values)
                cpu = self.res.node.cpu
                per_core = cpu.peak_gflops / cpu.cores
                duration = (
                    self.overheads.cpu_task_dispatch_s + flops / (per_core * 1e9)
                )
                yield engine.timeout(duration)
                sink[key] = _scoped(self.trace.selfprof, "kernel:cpu-reduce",
                                    self.app.cpu_reduce, key, values)
                self.trace.record(
                    f"reduce[{key!r}]",
                    self.device_name,
                    "reduce",
                    start,
                    engine.now,
                    flops=flops,
                )
            finally:
                self.res.cpu_pool.release()

        procs = [
            engine.process(one(k, v), name="cpu-reduce") for k, v in groups.items()
        ]
        yield engine.all_of(procs)


class GpuDaemon:
    """The daemon thread owning one GPU card (and its context, §III.C.3)."""

    def __init__(
        self,
        resources: NodeResources,
        gpu_index: int,
        app: MapReduceApp,
        config: JobConfig,
        trace: Trace,
    ) -> None:
        if gpu_index >= len(resources.gpu_engines):
            raise ValueError(
                f"node {resources.node.name} exposes "
                f"{len(resources.gpu_engines)} GPU engines, not {gpu_index + 1}"
            )
        self.res = resources
        self.stream_engine = resources.gpu_engines[gpu_index]
        self.gpu = self.stream_engine.gpu
        self.app = app
        self.config = config
        self.overheads = config.overheads
        self.trace = trace
        self.device_name = self.stream_engine.name
        #: fault-state device key + scheduler failure callback, wired by
        #: ``SubTaskScheduler.enable_faults`` (None in fault-free runs)
        self.fault_key: str | None = None
        self.fault_listener = None
        #: item spans already resident in GPU memory (loop-invariant cache)
        self._cached_blocks: set[tuple[int, int]] = set()
        #: bytes currently held by the loop-invariant cache
        self.cached_bytes: float = 0.0
        #: fraction of device memory the cache may occupy (the rest is
        #: working set: intermediates, kernel scratch, regions)
        self.cache_capacity_fraction: float = 0.9

    # ------------------------------------------------------------------
    def kernel_seconds(self, block: Block) -> float:
        """Kernel time for *block* from the resident-arm roofline."""
        flops = self.app.gpu_map_flops(block)
        if flops <= 0:
            return 0.0
        nbytes = self.app.block_bytes(block)
        intensity = self.app.gpu_intensity().at(nbytes)
        rate = self.gpu.attainable_gflops(intensity, staged=False)
        return flops / (rate * 1e9)

    def is_cached(self, block: Block) -> bool:
        """Whether *block*'s input already resides in GPU memory.

        Caching requires the funneled single-context design: "instead of
        having every MapReduce tasks creating its own GPU context, we make
        GPU device daemon to be the only thread that communicate to GPU
        device" (§III.C.3) — per-task contexts cannot keep data resident
        across tasks.  The ``locality-dynamic`` scheduling policy polls
        this to steer cached blocks back to their daemon.
        """
        return (
            self.config.single_gpu_context
            and self.app.iterative
            and (block.start, block.stop) in self._cached_blocks
        )

    def _stream_block(self, block: Block) -> StreamBlock:
        in_bytes = 0.0 if self.is_cached(block) else self.app.block_bytes(block)
        return StreamBlock(
            in_bytes=in_bytes,
            flops=self.app.gpu_map_flops(block),
            out_bytes=self.app.map_output_bytes(block),
            kernel_seconds=self.kernel_seconds(block),
        )

    def _map_block(
        self, block: Block, sink: list[KeyValue]
    ) -> Generator[Event, Any, None]:
        engine = self.res.engine
        if not self.config.single_gpu_context:
            # §III.C.3's anti-pattern: the task creates its own GPU
            # context instead of funneling through this daemon's.
            if self.overheads.gpu_context_s > 0:
                yield engine.timeout(self.overheads.gpu_context_s)
        if self.overheads.gpu_task_dispatch_s > 0:
            yield engine.timeout(self.overheads.gpu_task_dispatch_s)
        # Same dispatch-time sampler flush as the CPU daemon: coarse
        # stream blocks should not leave grid instants back-filled late.
        self.trace.tick(engine.now)
        stream_block = self._stream_block(block)
        faults = self.res.faults
        if faults is not None:
            scale = faults.compute_scale(self.fault_key, engine.now)
            if scale != 1.0 and stream_block.kernel_seconds is not None:
                stream_block = StreamBlock(
                    in_bytes=stream_block.in_bytes,
                    flops=stream_block.flops,
                    out_bytes=stream_block.out_bytes,
                    kernel_seconds=stream_block.kernel_seconds * scale,
                )
        yield from self.stream_engine.run_block(
            stream_block,
            trace=self.trace,
            label=f"map[{block.start}:{block.stop}]",
        )
        if self.app.iterative:
            # The loop-invariant input for this span becomes resident —
            # but only while it fits in device memory alongside the
            # working set.  C-means can cache "the event matrix in GPU
            # memory" (§IV.A.1) because it fits; oversized inputs must
            # re-stage every iteration.
            key = (block.start, block.stop)
            nbytes = self.app.block_bytes(block)
            budget = self.cache_capacity_fraction * self.gpu.memory_bytes
            if key not in self._cached_blocks and (
                self.cached_bytes + nbytes <= budget
            ):
                self._cached_blocks.add(key)
                self.cached_bytes += nbytes
        pairs, alloc = _map_kernel(
            self, "kernel:gpu-map", self.app.gpu_map, block
        )
        if alloc > 0:
            yield engine.timeout(alloc)
        _log_kernel(self, "gpu-map", block, len(pairs))
        _deliver(sink, block, pairs)
        self.res.allocator.note_block(
            (block.start, block.stop), self.device_name
        )

    def run_map_blocks(
        self,
        blocks: list[Block],
        sink: list[KeyValue],
        n_streams: int | None = None,
    ) -> Generator[Event, Any, None]:
        """Process fragment: issue *blocks* as (possibly overlapping)
        streams and await completion.

        ``n_streams=1`` serializes (the no-stream baseline); ``None`` lets
        the device's in-flight window (work queues) govern overlap.
        """
        engine = self.res.engine
        if n_streams is not None and n_streams >= 1:
            # Re-chunk: issue at most n_streams concurrent processes.
            from repro.simulate.resources import Resource

            gate = Resource(engine, capacity=n_streams, name="stream-gate")

            def gated(block: Block) -> Generator[Event, Any, None]:
                yield from gate.acquire()
                try:
                    yield from run_map_block(self, block, sink)
                finally:
                    gate.release()

            procs = [engine.process(gated(b), name="gpu-map") for b in blocks]
        else:
            procs = [
                engine.process(run_map_block(self, b, sink), name="gpu-map")
                for b in blocks
            ]
        yield engine.all_of(procs)

    def run_reduce(
        self,
        groups: dict[Any, list[Any]],
        sink: dict[Any, Any],
    ) -> Generator[Event, Any, None]:
        """Process fragment: reduce tasks as small GPU kernels.

        Used when the job runs GPU-only; values are already in host memory
        after the shuffle, so each reduce pays a (small) h2d + kernel.
        """
        engine = self.res.engine

        def one(key: Any, values: list[Any]) -> Generator[Event, Any, None]:
            flops = self.app.reduce_flops(key, values)
            duration = flops / (self.gpu.peak_gflops * 1e9)
            if self.overheads.gpu_task_dispatch_s > 0:
                yield engine.timeout(self.overheads.gpu_task_dispatch_s)
            yield from self.stream_engine.run_block(
                StreamBlock(
                    in_bytes=sum(
                        float(getattr(v, "nbytes", 64)) for v in values
                    ),
                    flops=flops,
                    out_bytes=self.app.reduce_output_bytes(key, None),
                    kernel_seconds=duration,
                ),
                trace=self.trace,
                label=f"reduce[{key!r}]",
            )
            sink[key] = _scoped(self.trace.selfprof, "kernel:gpu-reduce",
                                self.app.gpu_device_reduce, key, values)

        procs = [
            engine.process(one(k, v), name="gpu-reduce") for k, v in groups.items()
        ]
        yield engine.all_of(procs)
