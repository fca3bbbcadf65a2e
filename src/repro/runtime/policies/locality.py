"""Locality-aware work stealing (XKaapi-style affinity, §II.B context).

For iterative apps the GPU daemons cache each block's loop-invariant
input after the first staging (the paper's "copied into CPU and GPU
memories in advance" convention, §IV.A.1 — modelled as a per-daemon
cached-block set).  Plain dynamic polling ignores that: whichever daemon
is idle grabs the queue head, so a block staged into GPU 0's region last
iteration may be re-staged into GPU 1 — or mapped on the CPU — this one.

This policy keeps the shared-queue structure but makes the pop
affinity-aware: a GPU daemon prefers blocks it already holds, and the
CPU pollers prefer blocks *no* GPU holds.  On non-iterative apps nothing
is ever cached and it degenerates to plain dynamic polling.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.runtime.api import Block
from repro.runtime.daemons import CpuDaemon, GpuDaemon, run_map_block
from repro.runtime.policies.base import SchedulingPolicy
from repro.runtime.policies.dynamic import dynamic_block_count
from repro.runtime.policies.registry import register_policy
from repro.runtime.shuffle import KeyValue
from repro.simulate.engine import Event


@register_policy
class LocalityDynamicPolicy(SchedulingPolicy):
    """Block polling that steers GPU-cached blocks back to their daemon."""

    name = "locality-dynamic"

    def run_map_partition(
        self, partition: Block, sink: list[KeyValue]
    ) -> Generator[Event, Any, None]:
        sched = self.sched
        engine = sched.res.engine
        n_blocks = dynamic_block_count(sched, partition)
        self.record_block_plan(partition, n_blocks)
        queue: list[Block] = list(
            partition.split(min(n_blocks, partition.n_items))
        )
        gpu_daemons = sched.gpu_daemons

        def pop_for_gpu(d: GpuDaemon) -> Block:
            for i, block in enumerate(queue):
                if d.is_cached(block):
                    return queue.pop(i)
            block = queue.pop(0)
            if any(g.is_cached(block) for g in gpu_daemons):
                self.count_steal(d.device_name)
            return block

        def pop_for_cpu(d: CpuDaemon) -> Block:
            for i, block in enumerate(queue):
                if not any(g.is_cached(block) for g in gpu_daemons):
                    return queue.pop(i)
            self.count_steal(d.device_name)
            return queue.pop(0)

        def cpu_poller(d: CpuDaemon) -> Generator[Event, Any, None]:
            while queue and sched.daemon_active(d):
                self.note_queue_depth(len(queue))
                block = pop_for_cpu(d)
                self.count_dispatch(d.device_name)
                yield from run_map_block(d, block, sink)

        def gpu_poller(d: GpuDaemon) -> Generator[Event, Any, None]:
            while queue and sched.daemon_active(d):
                self.note_queue_depth(len(queue))
                block = pop_for_gpu(d)
                self.count_dispatch(d.device_name)
                yield from run_map_block(d, block, sink)

        procs = []
        cpu_daemon = sched.active_cpu_daemon
        if cpu_daemon is not None:
            for _ in range(sched.res.node.cpu.cores):
                procs.append(
                    engine.process(cpu_poller(cpu_daemon), name="cpu-poll")
                )
        for gpu_daemon in sched.active_gpu_daemons:
            procs.append(
                engine.process(gpu_poller(gpu_daemon), name="gpu-poll")
            )

        yield engine.all_of(procs)
        self.note_queue_depth(len(queue))  # drained (or abandoned) queue
        if queue:
            # Surviving pollers drained out with work left (devices died
            # mid-partition): hand the leftovers to recovery.
            for block in queue:
                sched.note_undispatched(block)
            queue.clear()

    def effective_cpu_fraction(self) -> float | None:
        return None  # pure polling: no pre-split fraction
