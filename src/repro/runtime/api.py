"""The user-implemented MapReduce interface (Table 1 of the paper).

An application subclasses :class:`MapReduceApp` (or
:class:`IterativeMapReduceApp` for C-means-style iterative computations)
and provides:

* **functional kernels** — ``cpu_map`` / ``cpu_reduce`` are mandatory;
  ``gpu_device_map`` / ``gpu_device_reduce`` default to the CPU versions
  ("for some applications, the source codes of cpu_mapreduce and
  gpu_device_mapreduce are same or similar", §III.B.1), and
  ``gpu_host_map`` may be overridden when the GPU path should go through a
  vendor library (the cuBLAS route GEMV takes in §IV.A.3);
* an optional ``combiner`` and ``compare``;
* **cost metadata** — the arithmetic-intensity profile (Table 2) plus
  per-block flop/byte accounting that the simulator charges against the
  roofline device models.

A map task's unit of work is a :class:`Block` — a half-open index range
over the application's input items, mirroring the paper's C-means design
where "the key object contains the indices bound of input matrices, while
the value object stores the pointers of input matrices".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable

from repro._validation import require_nonnegative_int
from repro.core.intensity import IntensityProfile
from repro.runtime.shuffle import KeyValue


@dataclass(frozen=True)
class Block:
    """Half-open item range ``[start, stop)`` assigned to one map task."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        require_nonnegative_int("start", self.start)
        require_nonnegative_int("stop", self.stop)
        if self.stop < self.start:
            raise ValueError(f"block stop {self.stop} precedes start {self.start}")

    @property
    def n_items(self) -> int:
        return self.stop - self.start

    def split(self, n_blocks: int) -> list["Block"]:
        """Split into *n_blocks* near-equal sub-blocks (empties dropped)."""
        from repro.runtime.partition import partition_range

        ranges = partition_range(self.n_items, n_blocks)
        return [
            Block(self.start + lo, self.start + hi) for lo, hi in ranges if hi > lo
        ]


class MapReduceApp(abc.ABC):
    """Base class for PRS applications.

    Subclasses must implement :meth:`cpu_map`, :meth:`cpu_reduce`,
    :meth:`n_items`, :meth:`item_bytes` and :meth:`intensity`; everything
    else has sensible defaults.
    """

    #: application name used in traces and reports
    name: str = "app"

    #: iterative applications keep loop-invariant input cached in GPU
    #: memory across iterations (§III.C.3) — the GPU roofline then uses
    #: the resident (DRAM-only) arm.
    iterative: bool = False

    # ------------------------------------------------------------------
    # Structure / cost metadata
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def n_items(self) -> int:
        """Total number of input items (map keyspace size)."""

    @abc.abstractmethod
    def item_bytes(self) -> float:
        """Input bytes per item (e.g. ``4 * D`` for a D-dim float32 point)."""

    @abc.abstractmethod
    def intensity(self) -> IntensityProfile:
        """Arithmetic intensity of the CPU implementation (``A_c``)."""

    def gpu_intensity(self) -> IntensityProfile:
        """Intensity of the GPU implementation (``A_g``); defaults to
        ``A_c`` — "usually A_c ~= A_g" (§III.B.3a)."""
        return self.intensity()

    def block_bytes(self, block: Block) -> float:
        """Input bytes covered by *block*."""
        return block.n_items * self.item_bytes()

    def map_flops(self, block: Block) -> float:
        """Flops one map task over *block* executes (CPU implementation)."""
        nbytes = self.block_bytes(block)
        if nbytes <= 0:
            return 0.0
        return self.intensity().flops(nbytes)

    def gpu_map_flops(self, block: Block) -> float:
        """Flops of the GPU implementation over *block*."""
        nbytes = self.block_bytes(block)
        if nbytes <= 0:
            return 0.0
        return self.gpu_intensity().flops(nbytes)

    def map_output_bytes(self, block: Block) -> float:
        """Intermediate bytes a map task emits (drives shuffle/d2h cost).

        Default: 1 KiB of partial results per block — the C-means/GMM
        pattern where a map task emits small partial aggregates, not data
        proportional to its input.  Override for apps with bulky
        intermediates.
        """
        return 1024.0

    def reduce_flops(self, key: Any, values: list[Any]) -> float:
        """Flops of one reduce call; default: trivial aggregation cost."""
        return 1e3 * max(len(values), 1)

    def reduce_output_bytes(self, key: Any, value: Any) -> float:
        """Bytes of one reduce task's output (merged back to the master)."""
        return 256.0

    # ------------------------------------------------------------------
    # Table 1: user-implemented functions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cpu_map(self, block: Block) -> list[KeyValue]:
        """C/C++-equivalent map over *block*; returns intermediate pairs."""

    @abc.abstractmethod
    def cpu_reduce(self, key: Any, values: list[Any]) -> Any:
        """C/C++-equivalent reduce for one key group."""

    def gpu_device_map(self, block: Block) -> list[KeyValue]:
        """CUDA ``__device__`` map; defaults to the CPU source."""
        return self.cpu_map(block)

    def gpu_device_reduce(self, key: Any, values: list[Any]) -> Any:
        """CUDA ``__device__`` reduce; defaults to the CPU source."""
        return self.cpu_reduce(key, values)

    def gpu_host_map(self, block: Block) -> list[KeyValue]:
        """CUDA ``__host__`` map (may call vendor libraries like cuBLAS).

        The GPU daemon prefers this over :meth:`gpu_device_map` when the
        subclass overrides it (see :meth:`has_gpu_host_map`).
        """
        raise NotImplementedError

    def combiner(self, key: Any, values: list[Any]) -> Any:
        """Optional node-local pre-reduction; ``NotImplementedError`` means
        no combiner (the paper makes ``combiner()`` the one optional
        function)."""
        raise NotImplementedError

    def compare(self, key1: Any, key2: Any) -> int:
        """Key ordering for the shuffle sort; default: natural order."""
        return (key1 > key2) - (key1 < key2)

    # ------------------------------------------------------------------
    # Capability introspection used by the schedulers
    # ------------------------------------------------------------------
    def has_gpu_host_map(self) -> bool:
        return type(self).gpu_host_map is not MapReduceApp.gpu_host_map

    def has_combiner(self) -> bool:
        return type(self).combiner is not MapReduceApp.combiner

    def gpu_map(self, block: Block) -> list[KeyValue]:
        """Dispatch to the preferred GPU map implementation."""
        if self.has_gpu_host_map():
            return self.gpu_host_map(block)
        return self.gpu_device_map(block)

    def total_bytes(self) -> float:
        """Size ``M`` of the whole input in bytes."""
        return self.n_items() * self.item_bytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} n={self.n_items()}>"


class IterativeMapReduceApp(MapReduceApp):
    """Applications with iterative computation steps (C-means, GMM, ...).

    The runtime drives them as::

        while not app.converged and iteration < max_iterations:
            state = app.iteration_state()        # broadcast to workers
            <map over all blocks>                 # reads state
            reduced = <reduce per key>
            app.update(reduced)                   # new centers etc.

    Loop-invariant input (the event matrix) stays cached in GPU memory —
    only :meth:`iteration_state` crosses the wire each round, and the GPU
    roofline uses the resident arm (``iterative = True``).

    State *derived* from the broadcast parameters that every map block
    would otherwise recompute (GMM's per-component Cholesky factors)
    belongs in an app-side cache that the first map of an iteration
    builds and :meth:`update` drops — never in :meth:`iteration_state`,
    because :meth:`state_bytes` prices the broadcast from it and growing
    it would change the simulated communication time.  The default
    :meth:`checkpoint`/:meth:`restore` carry such a cache with the rest
    of ``__dict__``.
    """

    iterative = True

    #: hard cap on iterations (the paper's epsilon test may not trigger)
    max_iterations: int = 20

    @abc.abstractmethod
    def iteration_state(self) -> Any:
        """The per-iteration broadcast state (e.g. current centers)."""

    @abc.abstractmethod
    def update(self, reduced: dict[Any, Any]) -> None:
        """Fold the reduce outputs into new state; sets convergence."""

    @property
    @abc.abstractmethod
    def converged(self) -> bool:
        """True once the termination criterion is met."""

    def state_bytes(self) -> float:
        """Wire size of :meth:`iteration_state` for broadcast costing."""
        from repro.comm.mpi import payload_nbytes

        return payload_nbytes(self.iteration_state())

    # -- fault-tolerant restart (docs/FAULTS.md) -----------------------
    def checkpoint(self) -> Any:
        """Snapshot of the mutable loop state for restart-from-checkpoint.

        The default deep-copies the instance ``__dict__``, which is
        sufficient for the bundled apps (their RNG is consumed only in
        ``__init__``); apps holding unsnapshottable resources should
        override this and :meth:`restore` together.
        """
        import copy

        return copy.deepcopy(self.__dict__)

    def restore(self, state: Any) -> None:
        """Reset the app to a :meth:`checkpoint` snapshot."""
        import copy

        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))
