"""1-D Jacobi stencil (heat equation) — the paper's §V PDE case.

"For SPMD applications, such as PDEs, FFT whose arithmetic intensities are
in the middle range ... using our PRS framework can increase resource
utilization of heterogeneous devices."  This app is the PDE representative:
iterative Jacobi relaxation of the 1-D heat equation with fixed boundary
values.

The MapReduce decomposition: each map task owns a block of grid cells and
computes their next values from the *current* grid (reading one halo cell
on each side); it emits its updated span keyed by the span bounds, and
``update`` writes the spans back into the grid.  Unlike the clustering
apps — whose intermediates are tiny aggregates — the stencil's
intermediate volume equals the grid itself every iteration, making it the
communication-heavy workload the network-aware model extension targets
(``gamma ~ 1``).

Arithmetic intensity: 3 flops per 8-byte cell read ≈ 0.4 flops/byte — the
low-middle of Figure 4.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.core.intensity import ConstantIntensity, IntensityProfile
from repro.runtime.api import Block, IterativeMapReduceApp


def jacobi_reference(
    grid: np.ndarray, iterations: int
) -> np.ndarray:
    """Serial Jacobi sweeps with fixed endpoints (the oracle)."""
    g = np.asarray(grid, dtype=np.float64).copy()
    for _ in range(iterations):
        nxt = g.copy()
        nxt[1:-1] = 0.5 * (g[:-2] + g[2:])
        g = nxt
    return g


class Jacobi1DApp(IterativeMapReduceApp):
    """Jacobi relaxation of the 1-D heat equation on PRS.

    Boundary cells (first and last) are Dirichlet-fixed.  Convergence:
    the maximum cell update falls below *epsilon*.
    """

    name = "jacobi1d"

    def __init__(
        self,
        grid: np.ndarray,
        epsilon: float = 1e-6,
        max_iterations: int = 50,
    ) -> None:
        grid = np.ascontiguousarray(grid, dtype=np.float64)
        if grid.ndim != 1 or grid.shape[0] < 3:
            raise ValueError(
                f"grid must be 1-D with >= 3 cells, got shape {grid.shape}"
            )
        require_positive("epsilon", epsilon)
        require_positive_int("max_iterations", max_iterations)
        self.grid = grid
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self._converged = False
        #: max |update| after each iteration
        self.residual_history: list[float] = []
        self._intensity = ConstantIntensity(0.4, label="jacobi1d")

    # ------------------------------------------------------------------
    def n_items(self) -> int:
        return self.grid.shape[0]

    def item_bytes(self) -> float:
        return float(self.grid.itemsize)

    def intensity(self) -> IntensityProfile:
        return self._intensity

    def map_output_bytes(self, block: Block) -> float:
        # The whole updated span crosses the shuffle: gamma ~ 1.
        return float(block.n_items * self.grid.itemsize + 16)

    def reduce_flops(self, key: Any, values: list[Any]) -> float:
        return 1.0  # identity

    # ------------------------------------------------------------------
    def cpu_map(self, block: Block) -> list[tuple[Any, Any]]:
        lo, hi = block.start, block.stop
        g = self.grid
        n = g.shape[0]
        new = g[lo:hi].copy()
        # Interior cells of this span (skipping global boundaries).
        inner_lo = max(lo, 1)
        inner_hi = min(hi, n - 1)
        if inner_hi > inner_lo:
            new[inner_lo - lo : inner_hi - lo] = 0.5 * (
                g[inner_lo - 1 : inner_hi - 1] + g[inner_lo + 1 : inner_hi + 1]
            )
        return [((lo, hi), new)]

    def cpu_reduce(self, key: Any, values: list[Any]) -> Any:
        if len(values) != 1:
            raise RuntimeError(f"jacobi: duplicate span {key}")
        return values[0]

    # ------------------------------------------------------------------
    def iteration_state(self) -> np.ndarray:
        return self.grid

    def update(self, reduced: dict[Any, Any]) -> None:
        new_grid = self.grid.copy()
        covered = 0
        for (lo, hi), span in reduced.items():
            new_grid[lo:hi] = span
            covered += hi - lo
        if covered != self.grid.shape[0]:
            raise RuntimeError(
                f"jacobi: lost spans ({covered} of {self.grid.shape[0]} cells)"
            )
        residual = float(np.max(np.abs(new_grid - self.grid)))
        self.grid = new_grid
        self.residual_history.append(residual)
        self._converged = residual < self.epsilon

    @property
    def converged(self) -> bool:
        return self._converged

    def steady_state(self) -> np.ndarray:
        """The analytic fixed point: linear between the boundary values."""
        return np.linspace(
            self.grid[0], self.grid[-1], self.grid.shape[0]
        )
