"""Fuzzy C-means clustering (paper §IV.A.1, Equations 12-14).

The MapReduce decomposition follows the paper exactly: "The Map function
calculates the distance and membership matrices, and then multiplies the
distance matrix by the membership matrix in order to calculate the new
cluster centers.  The Reduce function aggregates partial cluster centers
and calculates the final cluster centers."

Each map task covers a block of points and emits, per cluster ``j``, the
partial numerator ``sum_i u_ij^m x_i`` and denominator ``sum_i u_ij^m`` of
Equation (14), plus one ``("objective", ...)`` pair carrying the block's
contribution to ``J_m`` (Equation 12).  ``update`` recomputes the centers
and stops when they move less than ``epsilon`` — a center-based restatement
of the paper's membership test ``max_ij |u_ij^(k+1) - u_ij^(k)| < eps``
(tracking the full membership matrix across iterations would need O(N*M)
state on the master; centers determine memberships, so center convergence
implies membership convergence).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.core.intensity import IntensityProfile, cmeans_intensity
from repro.runtime.api import Block, IterativeMapReduceApp

_OBJECTIVE_KEY = "objective"


def _sq_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distances ``||x_i - c_j||^2`` of shape ``(n, M)``, via the
    expansion trick (never negative after the clip)."""
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * x @ c.T
        + np.sum(c * c, axis=1)[None, :]
    )
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _memberships(d2: np.ndarray, m: float) -> np.ndarray:
    """Equation (13) from the squared distances :func:`_sq_distances`."""
    require_positive("m", m)
    if m <= 1.0:
        raise ValueError(f"fuzzifier m must be > 1, got {m}")
    exponent = 1.0 / (m - 1.0)  # (d^2)^(1/(m-1)) == d^(2/(m-1))
    zero_mask = np.isclose(d2, 0.0)
    zero_rows = zero_mask.any(axis=1)
    # Pad exact zeros so the power stays finite; those rows are replaced by
    # hard memberships below.
    d2_safe = np.where(zero_mask, 1.0, d2)
    inv = d2_safe ** (-exponent)
    u = inv / np.sum(inv, axis=1, keepdims=True)
    if np.any(zero_rows):
        # A point sitting exactly on >= 1 center: all mass on the nearest.
        hard = np.zeros((int(zero_rows.sum()), d2.shape[1]))
        nearest = np.argmin(d2[zero_rows], axis=1)
        hard[np.arange(hard.shape[0]), nearest] = 1.0
        u[zero_rows] = hard
    return u


def fuzzy_memberships(
    points: np.ndarray, centers: np.ndarray, m: float = 2.0
) -> np.ndarray:
    """Equation (13): membership matrix ``U`` of shape ``(n, M)``.

    ``U_ij = 1 / sum_k (||x_i - c_j|| / ||x_i - c_k||)^(2/(m-1))``,
    computed stably as normalized inverse-power distances.  Points that
    coincide with a center get a hard membership of 1 there.
    """
    x = np.asarray(points, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    return _memberships(_sq_distances(x, c), m)


def cmeans_objective(
    points: np.ndarray, centers: np.ndarray, m: float = 2.0
) -> float:
    """Equation (12): ``J_m = sum_i sum_j u_ij^m ||x_i - c_j||^2``."""
    x = np.asarray(points, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    d2 = _sq_distances(x, c)
    return float(np.sum(_memberships(d2, m) ** m * d2))


def cmeans_reference(
    points: np.ndarray,
    n_clusters: int,
    m: float = 2.0,
    iterations: int = 20,
    seed: int = 0,
) -> np.ndarray:
    """Plain single-process FCM — the oracle distributed runs must match."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(points.shape[0], size=n_clusters, replace=False)
    centers = np.asarray(points, dtype=np.float64)[idx].copy()
    x = np.asarray(points, dtype=np.float64)
    for _ in range(iterations):
        u = fuzzy_memberships(x, centers, m)
        w = u**m
        centers = (w.T @ x) / np.sum(w, axis=0)[:, None]
    return centers


class CMeansApp(IterativeMapReduceApp):
    """Fuzzy C-means on the PRS runtime."""

    name = "cmeans"

    def __init__(
        self,
        points: np.ndarray,
        n_clusters: int,
        m: float = 2.0,
        epsilon: float = 1e-3,
        max_iterations: int = 20,
        seed: int = 0,
    ) -> None:
        points = np.ascontiguousarray(points)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        require_positive_int("n_clusters", n_clusters)
        if n_clusters > points.shape[0]:
            raise ValueError(
                f"n_clusters {n_clusters} exceeds point count {points.shape[0]}"
            )
        if m <= 1.0:
            raise ValueError(f"fuzzifier m must be > 1, got {m}")
        require_positive("epsilon", epsilon)
        require_positive_int("max_iterations", max_iterations)

        self.points = points
        self.n_clusters = n_clusters
        self.m = m
        self.epsilon = epsilon
        self.max_iterations = max_iterations

        rng = np.random.default_rng(seed)
        idx = rng.choice(points.shape[0], size=n_clusters, replace=False)
        #: current cluster centers (float64 for stable accumulation)
        self.centers = points[idx].astype(np.float64).copy()
        self._converged = False
        #: J_m after each completed iteration
        self.objective_history: list[float] = []
        self._intensity = cmeans_intensity(n_clusters)

    # ------------------------------------------------------------------
    # Cost metadata
    # ------------------------------------------------------------------
    def n_items(self) -> int:
        return self.points.shape[0]

    def item_bytes(self) -> float:
        return float(self.points.shape[1] * self.points.itemsize)

    def intensity(self) -> IntensityProfile:
        return self._intensity

    def map_output_bytes(self, block: Block) -> float:
        # Per cluster: a D-vector numerator + scalar denominator, float64.
        d = self.points.shape[1]
        return self.n_clusters * (d * 8.0 + 8.0) + 16.0

    def reduce_flops(self, key: Any, values: list[Any]) -> float:
        d = self.points.shape[1]
        return float(len(values) * (d + 1))

    # ------------------------------------------------------------------
    # MapReduce kernels
    # ------------------------------------------------------------------
    def cpu_map(self, block: Block) -> list[tuple[Any, Any]]:
        x = self.points[block.start : block.stop].astype(np.float64)
        d2 = _sq_distances(x, self.centers)
        w = _memberships(d2, self.m) ** self.m
        numerators = w.T @ x  # (M, D)
        denominators = np.sum(w, axis=0)  # (M,)
        objective = float(np.sum(w * d2))

        pairs: list[tuple[Any, Any]] = [
            (j, (numerators[j], float(denominators[j])))
            for j in range(self.n_clusters)
        ]
        pairs.append((_OBJECTIVE_KEY, objective))
        return pairs

    def cpu_reduce(self, key: Any, values: list[Any]) -> Any:
        if key == _OBJECTIVE_KEY:
            return float(sum(values))
        numerator = np.sum([v[0] for v in values], axis=0)
        denominator = float(sum(v[1] for v in values))
        return (numerator, denominator)

    def combiner(self, key: Any, values: list[Any]) -> Any:
        # Partial aggregation is identical to the reduce.
        return self.cpu_reduce(key, values)

    # ------------------------------------------------------------------
    # Iteration driver hooks
    # ------------------------------------------------------------------
    def iteration_state(self) -> np.ndarray:
        return self.centers

    def update(self, reduced: dict[Any, Any]) -> None:
        new_centers = self.centers.copy()
        for j in range(self.n_clusters):
            if j not in reduced:
                raise RuntimeError(f"cmeans: lost partials for cluster {j}")
            numerator, denominator = reduced[j]
            # Reduce may deliver a combiner-aggregated tuple or a raw one.
            if denominator > 0:
                new_centers[j] = np.asarray(numerator) / denominator
        delta = float(np.max(np.linalg.norm(new_centers - self.centers, axis=1)))
        self.centers = new_centers
        if _OBJECTIVE_KEY in reduced:
            self.objective_history.append(float(reduced[_OBJECTIVE_KEY]))
        self._converged = delta < self.epsilon

    @property
    def converged(self) -> bool:
        return self._converged

    # ------------------------------------------------------------------
    def memberships(self) -> np.ndarray:
        """Final membership matrix for the whole input."""
        return fuzzy_memberships(self.points, self.centers, self.m)

    def labels(self) -> np.ndarray:
        """Hard labels: argmax membership per point."""
        return np.argmax(self.memberships(), axis=1)
