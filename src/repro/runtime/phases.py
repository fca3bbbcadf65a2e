"""The job lifecycle as named phases (the §III.A.2 driver, decomposed).

``PRSRuntime.run`` used to inline the whole per-rank lifecycle —
broadcast → map → combine → shuffle → reduce → gather → converge — in
one worker generator.  Each step is now a :class:`Phase` object that
brackets its execution with a live span in the shared trace
(:meth:`repro.simulate.trace.Trace.begin_phase` /
:meth:`~repro.simulate.trace.Trace.end_phase`, which also maintain the
job -> iteration -> phase span hierarchy), giving every job a
per-iteration, per-phase time breakdown (``JobResult.phase_breakdown``)
for free, without adding any simulated events: phases are pure code
motion around the same yields, so schedules are bit-identical to the
monolithic worker.

Phases run back-to-back on each rank (each span starts where the
previous one ended), so a rank's span sum equals its finish time; rank
0's sum matches the job makespan up to the final convergence-broadcast
latency on the other ranks.

Since the task-DAG runtime landed, every :class:`Phase` subclass is also
a **node-builder**: :func:`iteration_graph` assembles one instance of
each into a :class:`~repro.runtime.dag.TaskGraph` whose edges carry the
modelled data-flow sizes (from :func:`repro.runtime.partition.blocks_nbytes`
over the rank's partitions), and the driver executes the graph's
ready-set schedule instead of a hard-coded list.  The default iteration
graph is exactly ``TaskGraph.linear(ITERATION_PHASES)`` — a chain — so
schedules stay bitwise identical to the pipeline era; richer shapes only
need a different builder, not a different driver.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from math import log2
from typing import TYPE_CHECKING, Any, ClassVar, Generator

from repro import obs
from repro.comm.mpi import RankComm, World
from repro.runtime.api import Block, MapReduceApp
from repro.runtime.iterative import IterationLog, IterationStats
from repro.runtime.job import JobConfig
from repro.runtime.shuffle import (
    apply_combiner,
    group_by_key,
    hash_partition,
    shuffle_stats,
    sort_pairs,
)
from repro.simulate.engine import Engine, Event
from repro.simulate.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.daemons import NodeResources
    from repro.runtime.dag import TaskGraph
    from repro.runtime.scheduler import SubTaskScheduler


@dataclass
class PhaseContext:
    """Everything one rank's phases share during a job.

    The first block of fields is fixed at worker start; the second is
    the mutable per-iteration dataflow the phases hand to one another.
    """

    engine: Engine
    world: World
    comm: RankComm
    sched: "SubTaskScheduler"
    resources: "NodeResources"
    app: MapReduceApp
    config: JobConfig
    trace: Trace
    iterative: bool
    max_iterations: int
    node_partitions: list[list[Block]]
    final_output: dict[Any, Any]
    iteration_log: IterationLog
    iterations_done: list[int]
    #: physical node index for trace tracks — stable across rank-restart
    #: incarnations (``rank`` is the comm rank, which is re-densified
    #: over survivors after a restart); equals ``rank`` by default
    trace_rank: int = -1
    #: driver-owned checkpoint store (``RecoveryState``) for iterative
    #: restart; None when no faults are configured
    recovery: Any = None
    #: driver-owned :class:`~repro.runtime.membership.ElasticState` when
    #: the job is elastic (membership events / autoscaler); rank 0
    #: consults it at each iteration boundary to decide whether the
    #: epoch must end for a reconfiguration
    elastic: Any = None
    #: elastic numerical mode: keep per-block partials through the
    #: combine step so the reduce folds the canonical block-ordered
    #: stream — output is then invariant to the live member count
    canonical_reduction: bool = False

    # -- per-iteration dataflow ----------------------------------------
    my_parts: list[Block] = field(default_factory=list)
    iteration: int = 0
    iter_start: float = 0.0
    net_before: float = 0.0
    pairs: list[tuple[Any, Any]] = field(default_factory=list)
    mine: list[tuple[Any, Any]] = field(default_factory=list)
    local_out: dict[Any, Any] = field(default_factory=dict)
    gathered: list[dict[Any, Any]] | None = None
    stop: bool = True
    #: set by the convergence broadcast when the epoch must end at this
    #: iteration boundary for a membership change (workers quiesce and
    #: return instead of stopping the job)
    reconfigure: bool = False

    def __post_init__(self) -> None:
        if self.trace_rank < 0:
            self.trace_rank = self.comm.rank

    @property
    def rank(self) -> int:
        return self.comm.rank


class Phase(abc.ABC):
    """One named step of the per-rank job lifecycle.

    :meth:`run` brackets :meth:`body` with a ``phase``-category span in
    the trace.  ``body`` may be a process fragment (a generator yielding
    simulation events) or a plain method returning ``None`` for purely
    functional steps — either way the span covers exactly the simulated
    time the step consumed.
    """

    #: span label; also the key in ``JobResult.phase_breakdown``.
    #: Subclasses that do not set one get a kebab-case name derived from
    #: the class name (``PrefetchInputPhase`` -> ``prefetch-input``), so
    #: DAG-introduced phase kinds never show up as an anonymous ``"?"``.
    name: ClassVar[str] = "?"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "name" not in cls.__dict__ and cls.name == "?":
            stem = cls.__name__
            if stem.endswith("Phase") and len(stem) > len("Phase"):
                stem = stem[: -len("Phase")]
            cls.name = "".join(
                ("-" + ch.lower()) if ch.isupper() and i > 0 else ch.lower()
                for i, ch in enumerate(stem)
            )

    def run(
        self, ctx: PhaseContext, attrs: dict[str, Any] | None = None
    ) -> Generator[Event, Any, None]:
        span = ctx.trace.begin_phase(
            self.name,
            ctx.trace_rank,
            self.iteration_index(ctx),
            ctx.engine.now,
            attrs=attrs,
        )
        try:
            gen = self.body(ctx)
            if gen is not None:
                yield from gen
        finally:
            # Close the span even when the rank dies or the epoch aborts
            # mid-phase, so the trace hierarchy stays consistent.
            ctx.trace.end_phase(span, ctx.engine.now)

    @abc.abstractmethod
    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None] | None:
        """The phase's work; see :meth:`run` for the generator contract."""

    def iteration_index(self, ctx: PhaseContext) -> int:
        return ctx.iteration

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SetupPhase(Phase):
    """One-off job setup: daemon spawn plus the partition-descriptor
    scatter from the master (recorded as iteration ``-1``)."""

    name = "setup"

    def iteration_index(self, ctx: PhaseContext) -> int:
        return -1

    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None]:
        yield ctx.engine.timeout(ctx.config.overheads.job_setup_s)
        # Master ships partition descriptors (index ranges — tiny).
        descriptors = (
            [
                [(p.start, p.stop) for p in parts]
                for parts in ctx.node_partitions
            ]
            if ctx.rank == 0
            else None
        )
        my_descr = yield from ctx.comm.scatter(descriptors, root=0)
        ctx.my_parts = [Block(lo, hi) for lo, hi in my_descr]


class BroadcastState(Phase):
    """Broadcast the loop state (centers etc.) for iterative apps.  State
    lives in shared memory functionally; the broadcast charges its wire
    cost.  Zero-span for single-pass apps."""

    name = "broadcast"

    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None] | None:
        if not ctx.iterative:
            return None
        return self._bcast(ctx)

    def _bcast(self, ctx: PhaseContext) -> Generator[Event, Any, None]:
        state = ctx.app.iteration_state() if ctx.rank == 0 else None
        yield from ctx.comm.bcast(state, root=0, tag=1000 + ctx.iteration)
        yield ctx.engine.timeout(ctx.config.overheads.iteration_s)


class MapPhase(Phase):
    """Map every local partition through the sub-task scheduler's policy."""

    name = "map"

    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None]:
        ctx.pairs = []
        for part in ctx.my_parts:
            yield from ctx.sched.run_map_partition(part, ctx.pairs)


class CombinePhase(Phase):
    """Apply the app's combiner to the local pairs (functional: the
    combiner cost is charged inside the map kernels)."""

    name = "combine"

    def body(self, ctx: PhaseContext) -> None:
        if ctx.canonical_reduction:
            # Elastic jobs skip the per-rank collapse: combining groups
            # floating-point partials *per rank*, and that grouping — and
            # therefore the bits of the reduce output — would change with
            # the live member count.  Keeping the raw per-block partials
            # makes the reduce fold the same canonical stream whether 2
            # or 8 ranks mapped it (docs/FAULTS.md "Elasticity").
            return
        if ctx.app.has_combiner():
            ctx.pairs = apply_combiner(ctx.pairs, ctx.app.combiner)


class ShufflePhase(Phase):
    """Personalized all-to-all of the per-node key buckets, so "pairs
    with the same key are stored consecutively in a bucket on the same
    node" (§III.A.2)."""

    name = "shuffle"

    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None]:
        buckets = hash_partition(ctx.pairs, ctx.comm.size)
        stats = shuffle_stats(buckets)
        ctx.trace.annotate_phase(
            ctx.trace_rank,
            shuffle_out_pairs=stats["total_pairs"],
            shuffle_out_bytes=stats["total_bytes"],
            shuffle_fanout=stats["fanout"],
        )
        ctx.trace.metrics.counter(obs.SHUFFLE_BYTES).inc(
            stats["total_bytes"], rank=str(ctx.rank)
        )
        incoming = yield from ctx.comm.alltoall(
            buckets, tag=100_000 + ctx.iteration * 256
        )
        ctx.mine = [kv for bucket in incoming for kv in bucket]
        ctx.trace.metrics.counter(obs.SHUFFLE_PAIRS).inc(
            len(ctx.mine), rank=str(ctx.rank)
        )


class ReducePhase(Phase):
    """Optional keyed sort, then grouped reduction on this node."""

    name = "reduce"

    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None]:
        mine = ctx.mine
        if ctx.config.sort_intermediate and mine:
            # Sort cost: n log2 n comparisons at ~20ns each on the
            # node CPU — the "sorted in CPU memory" step.
            n_pairs = len(mine)
            sort_cost = 2e-8 * n_pairs * max(log2(n_pairs), 1.0)
            yield ctx.engine.timeout(sort_cost)
            mine = sort_pairs(mine, compare=ctx.app.compare)
        groups = group_by_key(mine)
        ctx.local_out = {}
        yield from ctx.sched.run_reduce(groups, ctx.local_out)


class GatherPhase(Phase):
    """Gather the reduce outputs at the master, then bulk-free every
    daemon region (§III.C.2 — "the collection of allocated objects in the
    region can be deallocated all at once")."""

    name = "gather"

    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None]:
        ctx.gathered = yield from ctx.comm.gather(
            ctx.local_out, root=0, tag=3000 + ctx.iteration
        )
        ctx.resources.allocator.publish_metrics(
            ctx.trace.metrics, node=ctx.resources.node.name
        )
        ctx.resources.allocator.reset_all()


class ConvergencePhase(Phase):
    """Master-side merge/update/stats, the policy feedback hook, and —
    for iterative apps — the stop broadcast."""

    name = "convergence"

    def body(self, ctx: PhaseContext) -> Generator[Event, Any, None]:
        ctx.stop = True
        if ctx.rank == 0:
            merged: dict[Any, Any] = {}
            assert ctx.gathered is not None
            for part_out in ctx.gathered:
                merged.update(part_out)
            ctx.final_output.clear()
            ctx.final_output.update(merged)
            if ctx.iterative:
                ctx.app.update(merged)
                ctx.stop = (
                    ctx.app.converged
                    or (ctx.iteration + 1) >= ctx.max_iterations
                )
            ctx.iteration_log.add(
                IterationStats(
                    index=ctx.iteration,
                    start=ctx.iter_start,
                    end=ctx.engine.now,
                    network_bytes=ctx.world.bytes_sent - ctx.net_before,
                    map_pairs=len(ctx.pairs),
                )
            )
            ctx.iterations_done[0] = ctx.iteration + 1
            ctx.trace.metrics.counter(obs.ITERATIONS).inc()
            if (
                ctx.iterative
                and ctx.recovery is not None
                and (ctx.iteration + 1) % ctx.recovery.interval == 0
            ):
                # Snapshot the loop state so a failed rank can restart
                # from here instead of iteration 0.
                ctx.recovery.save(ctx.iteration + 1, ctx.app.checkpoint())
                ctx.trace.metrics.counter(obs.RECOVERY_CHECKPOINTS).inc()
        # Feedback point: the node's policy may refit its split from the
        # observed metrics before the next iteration.  Decisions taken
        # from here on (including fault refits next iteration) are
        # audited against this iteration index.
        ctx.sched.current_iteration = ctx.iteration
        ctx.sched.policy.on_iteration_end(ctx.iteration)
        if ctx.iterative:
            # Convergence-broadcast signal: False = continue, True =
            # stop, 2 = quiesce for a membership reconfiguration.  The
            # wire cost is unchanged (bool and int payloads are both 8
            # bytes), so non-elastic schedules stay bit-identical.
            signal: Any = ctx.stop
            if (
                ctx.rank == 0
                and ctx.elastic is not None
                and not ctx.stop
                and ctx.elastic.should_reconfigure(
                    ctx.engine.now,
                    ctx.trace.sampler.bank if ctx.trace.sampler else None,
                    ctx.world.faults.dead_nodes if ctx.world.faults else set(),
                    ctx.iteration,
                )
            ):
                if (
                    ctx.recovery is not None
                    and ctx.recovery.iteration != ctx.iteration + 1
                ):
                    # Boundary checkpoint so the transition is loss-free
                    # even when the periodic interval did not land here.
                    ctx.recovery.save(ctx.iteration + 1, ctx.app.checkpoint())
                    ctx.trace.metrics.counter(obs.RECOVERY_CHECKPOINTS).inc()
                signal = 2
            signal = yield from ctx.comm.bcast(
                signal if ctx.rank == 0 else None,
                root=0,
                tag=4000 + ctx.iteration,
            )
            ctx.reconfigure = signal == 2
            ctx.stop = bool(signal) and not ctx.reconfigure


#: The per-iteration pipeline, in execution order.
ITERATION_PHASES: tuple[type[Phase], ...] = (
    BroadcastState,
    MapPhase,
    CombinePhase,
    ShufflePhase,
    ReducePhase,
    GatherPhase,
    ConvergencePhase,
)


def iteration_graph(ctx: PhaseContext) -> "TaskGraph":
    """Build one rank's per-iteration task graph (the node-builder API).

    Called by the driver once per job, after :class:`SetupPhase` has
    scattered the partition descriptors (``ctx.my_parts`` is known), so
    the chain edges can be annotated with the modelled data-flow sizes:

    * ``broadcast -> map``: the input bytes the map kernels consume;
    * ``map -> combine -> shuffle``: the emitted intermediate volume;
    * ``shuffle -> reduce``: the bucket volume crossing the network.

    The sizes are annotations for the scheduling policies and the
    critical-path engine — the executor charges no time for them.  The
    default shape is the paper's linear SPMD chain; apps with different
    dependency structure supply their own builder and the driver is
    unchanged (``TaskGraph.run`` handles any DAG).
    """
    from repro.runtime.dag import TaskGraph
    from repro.runtime.partition import blocks_nbytes

    in_bytes = blocks_nbytes(ctx.my_parts, ctx.app.block_bytes)
    out_bytes = blocks_nbytes(ctx.my_parts, ctx.app.map_output_bytes)
    edge_bytes = {
        ("broadcast", "map"): in_bytes,
        ("map", "combine"): out_bytes,
        ("combine", "shuffle"): out_bytes,
        ("shuffle", "reduce"): out_bytes,
    }
    return TaskGraph.linear(
        [phase_cls() for phase_cls in ITERATION_PHASES],
        edge_bytes=edge_bytes,
    )
