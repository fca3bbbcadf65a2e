"""Shared fixtures for the tests: toy applications, a synthetic access
log, a scaled-device builder, and the collectives the runtime itself
never calls (allreduce, allgather, barrier, ring allreduce)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.apps.loganalysis import LogAnalysisApp
from repro.apps.stencil import Jacobi1DApp
from repro.core.intensity import ConstantIntensity
from repro.hardware.device import DeviceSpec
from repro.runtime.api import Block, IterativeMapReduceApp, MapReduceApp


def jacobi_hot_spot(n_cells: int, **kwargs) -> Jacobi1DApp:
    """The standard stencil problem: zero grid, hot left boundary."""
    grid = np.zeros(n_cells)
    grid[0] = 100.0
    return Jacobi1DApp(grid, **kwargs)


class ModSumApp(MapReduceApp):
    """Toy SPMD app: sum item values grouped by ``item % n_keys``.

    Deterministic ground truth makes runtime correctness checks exact.
    """

    name = "modsum"

    def __init__(self, n: int = 1000, n_keys: int = 4, intensity: float = 10.0):
        self._n = n
        self._keys = n_keys
        self._intensity = ConstantIntensity(intensity, label="modsum")

    def n_items(self) -> int:
        return self._n

    def item_bytes(self) -> float:
        return 8.0

    def intensity(self):
        return self._intensity

    def cpu_map(self, block: Block):
        items = np.arange(block.start, block.stop, dtype=np.int64)
        return [
            (int(k), int(items[items % self._keys == k].sum()))
            for k in range(self._keys)
            if np.any(items % self._keys == k)
        ]

    def cpu_reduce(self, key, values):
        return int(sum(values))

    def expected_output(self) -> dict[int, int]:
        items = np.arange(self._n, dtype=np.int64)
        return {
            int(k): int(items[items % self._keys == k].sum())
            for k in range(self._keys)
            if np.any(items % self._keys == k)
        }


class CombinerModSumApp(ModSumApp):
    """ModSumApp plus a combiner, to exercise the combiner path."""

    name = "modsum+combiner"

    def combiner(self, key, values):
        return int(sum(values))


class CountdownApp(IterativeMapReduceApp):
    """Iterative toy: state counts down; converges after ``rounds`` steps.

    Map emits the per-block item count; update() decrements the counter —
    exercising the iterate/broadcast/update/convergence machinery with
    exactly predictable iteration counts.
    """

    name = "countdown"
    max_iterations = 50

    def __init__(self, n: int = 200, rounds: int = 3):
        self._n = n
        self.rounds = rounds
        self.remaining = rounds
        self.updates = 0
        self._intensity = ConstantIntensity(500.0, label="countdown")

    def n_items(self) -> int:
        return self._n

    def item_bytes(self) -> float:
        return 4.0

    def intensity(self):
        return self._intensity

    def cpu_map(self, block: Block):
        return [("count", block.n_items)]

    def cpu_reduce(self, key, values):
        return sum(values)

    def iteration_state(self):
        return {"remaining": self.remaining}

    def update(self, reduced):
        assert reduced.get("count") == self._n, "lost map outputs"
        self.remaining -= 1
        self.updates += 1

    @property
    def converged(self) -> bool:
        return self.remaining <= 0


def rank_phases(trace, rank: int | None = None, iteration: int | None = None):
    """The trace's ``phase`` spans, optionally of one rank / iteration."""
    return [
        s
        for s in trace.tracer.find(category="phase")
        if (rank is None or s.attrs["rank"] == rank)
        and (iteration is None or s.attrs["iteration"] == iteration)
    ]


def phase_rows(trace) -> list[tuple]:
    """``(phase, rank, iteration, start, end)`` of every phase span."""
    return [
        (s.name, s.attrs["rank"], s.attrs["iteration"], s.start, s.end)
        for s in rank_phases(trace)
    ]


_PATHS = ["/", "/index.html", "/api/v1/jobs", "/static/app.js", "/data.csv"]
_STATUS = [200, 200, 200, 200, 304, 404, 500]


def synthesize_log(n_lines: int, seed: int = 0) -> list[str]:
    """Generate Apache-combined-ish access log lines."""
    require_positive_int("n_lines", n_lines)
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        host = f"10.0.{rng.integers(0, 256)}.{rng.integers(0, 256)}"
        path = _PATHS[rng.integers(0, len(_PATHS))]
        status = _STATUS[rng.integers(0, len(_STATUS))]
        size = int(rng.integers(128, 65536))
        lines.append(f'{host} - - [07/Jul/2013:10:00:00] "GET {path}" '
                     f"{status} {size}")
    return lines


def synthetic_log_app(n_lines: int, seed: int = 0) -> LogAnalysisApp:
    """A log-analysis job over *n_lines* synthetic access-log lines."""
    return LogAnalysisApp(synthesize_log(n_lines, seed))


def scaled(spec: DeviceSpec, factor: float) -> DeviceSpec:
    """A copy of *spec* whose peak performance is scaled by *factor*."""
    require_positive("factor", factor)
    return replace(spec, peak_gflops=spec.peak_gflops * factor)


def allreduce(comm, payload, op, tag: int = -3):
    """Process fragment: reduce to rank 0 then broadcast (every rank
    returns the result)."""
    reduced = yield from comm.reduce(payload, op, root=0, tag=tag)
    result = yield from comm.bcast(reduced, root=0, tag=tag - 100)
    return result


def allgather(comm, payload, tag: int = -6):
    """Process fragment: gather at rank 0 + broadcast of the list."""
    gathered = yield from comm.gather(payload, root=0, tag=tag)
    result = yield from comm.bcast(gathered, root=0, tag=tag - 100)
    return result


def barrier(comm, tag: int = -7):
    """Process fragment: all ranks synchronize (zero-byte allreduce)."""
    yield from allreduce(comm, 0, lambda a, b: 0, tag=tag)


def allreduce_ring(comm, payload: np.ndarray, tag: int = -9):
    """Process fragment: segmented ring allreduce (sum) for NumPy arrays.

    The bandwidth-optimal algorithm: split the array into ``P``
    segments; a reduce-scatter phase circulates accumulating segments
    for ``P-1`` steps, then an allgather phase circulates the finished
    segments for another ``P-1`` steps.  Every step moves only ``1/P``
    of the data and all ring links work concurrently, so total time
    approaches ``2 * nbytes / bandwidth`` — independent of ``P`` —
    versus the binomial tree's ``2 ceil(log2 P)`` full-payload rounds.
    The tree (:func:`allreduce`) stays preferable for small
    payloads, where its fewer latency terms dominate.
    """
    if not isinstance(payload, np.ndarray):
        raise TypeError("allreduce_ring requires a numpy array")
    size = comm.size
    if size == 1:
        return payload.copy()
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size

    flat = payload.reshape(-1).astype(np.float64, copy=True)
    bounds = np.linspace(0, flat.size, size + 1).astype(int)

    def segment(i: int) -> slice:
        i %= size
        return slice(bounds[i], bounds[i + 1])

    # Reduce-scatter: after step s, rank r has accumulated segment
    # (r - s - 1); after P-1 steps it owns segment (r + 1) fully.
    for step in range(size - 1):
        yield from comm.send(
            flat[segment(comm.rank - step)].copy(), right, tag + step
        )
        incoming = yield from comm.recv(left, tag + step)
        flat[segment(comm.rank - step - 1)] += incoming

    # Allgather: circulate the finished segments.
    for step in range(size - 1):
        yield from comm.send(
            flat[segment(comm.rank + 1 - step)].copy(), right,
            tag + size + step,
        )
        incoming = yield from comm.recv(left, tag + size + step)
        flat[segment(comm.rank - step)] = incoming

    return flat.reshape(payload.shape)
