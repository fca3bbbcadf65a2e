"""The paper's dynamic strategy as a policy (§III.B.2, second bullet).

The partition is chopped into blocks that idle device daemons poll from a
shared queue.  The paper notes "it is non-trivial work to find out the
appropriate block sizes"; when ``config.dynamic_blocks`` is unset the
block count is derived from the granularity model itself —
:func:`dynamic_block_count` targets load balance (the §III.B.3b CPU rule
plus one in-flight block per GPU work queue) but never splits below the
``MinBs`` saturation size of Equation (11).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from repro.core.granularity import cpu_block_count, min_block_size
from repro.runtime.api import Block
from repro.runtime.daemons import CpuDaemon, GpuDaemon, run_map_block
from repro.runtime.policies.base import SchedulingPolicy
from repro.runtime.policies.registry import register_policy
from repro.runtime.shuffle import KeyValue
from repro.simulate.engine import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.scheduler import SubTaskScheduler


def dynamic_block_count(sched: "SubTaskScheduler", partition: Block) -> int:
    """Blocks to chop *partition* into for the polling policies.

    An explicit ``config.dynamic_blocks`` wins.  Otherwise the count
    targets load balance — ``multiplier x cores`` CPU blocks (§III.B.3b)
    plus ``work_queues + 1`` in-flight blocks per GPU — capped so no block
    falls below ``MinBs`` of Equation (11) (an unsaturable device imposes
    no cap; Equation (11) then has no solution).

    Always derived from the NOMINAL device set, even when some devices
    are dead: block boundaries must be fault-invariant so a faulted run's
    reduce input stays bitwise identical to the fault-free run.
    """
    config = sched.config
    if config.dynamic_blocks is not None:
        return config.dynamic_blocks

    target = 0
    if sched.cpu_daemon is not None:
        target += cpu_block_count(
            sched.res.node.cpu.cores, config.cpu_block_multiplier
        )
    for daemon in sched.gpu_daemons:
        target += daemon.gpu.work_queues + 1
    target = max(target, 1)

    if sched.gpu_daemons:
        part_bytes = sched.app.block_bytes(partition)
        profile = sched.app.gpu_intensity()
        cap: int | None = None
        for daemon in sched.gpu_daemons:
            try:
                minbs = min_block_size(daemon.gpu, profile)
            except ValueError:
                continue  # peak unreachable at any size: no MinBs constraint
            if minbs > 0:
                device_cap = max(1, int(part_bytes // minbs))
                cap = device_cap if cap is None else min(cap, device_cap)
        if cap is not None:
            target = min(target, cap)
    return max(target, 1)


@register_policy
class DynamicPolicy(SchedulingPolicy):
    """Fixed blocks polled from a shared queue by idle device daemons."""

    name = "dynamic"

    def run_map_partition(
        self, partition: Block, sink: list[KeyValue]
    ) -> Generator[Event, Any, None]:
        sched = self.sched
        engine = sched.res.engine
        n_blocks = dynamic_block_count(sched, partition)
        self.record_block_plan(partition, n_blocks)
        queue: deque[Block] = deque(
            partition.split(min(n_blocks, partition.n_items))
        )

        # NB: pollers are generators evaluated lazily — the daemon each one
        # drives must be bound at definition time (default argument), not
        # via the enclosing scope, or a later loop variable would rebind it.
        def poller(d: CpuDaemon | GpuDaemon) -> Generator[Event, Any, None]:
            while queue and sched.daemon_active(d):
                self.note_queue_depth(len(queue))
                block = queue.popleft()
                self.count_dispatch(d.device_name)
                yield from run_map_block(d, block, sink)

        procs = []
        cpu_daemon = sched.active_cpu_daemon
        if cpu_daemon is not None:
            # One poller per core: each holds one core at a time, so the
            # pool stays saturated while work remains.
            for _ in range(sched.res.node.cpu.cores):
                procs.append(
                    engine.process(poller(cpu_daemon), name="cpu-poll")
                )
        for gpu_daemon in sched.active_gpu_daemons:
            procs.append(
                engine.process(poller(gpu_daemon), name="gpu-poll")
            )

        yield engine.all_of(procs)
        self.note_queue_depth(len(queue))  # drained (or abandoned) queue
        if queue:
            # Every surviving poller exited with work left (its device
            # died mid-drain): route the leftovers through recovery.
            for block in queue:
                sched.note_undispatched(block)
            queue.clear()

    def effective_cpu_fraction(self) -> float | None:
        return None  # pure polling: no pre-split fraction
