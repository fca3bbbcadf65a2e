"""Cluster description: a set of fat nodes joined by an interconnect.

The paper studies homogeneous clusters (§III.B.3a: "we study the case where
the fat nodes are of homogeneous computation capability"), but the class
supports heterogeneous node lists so the analytic model's extension to
inhomogeneous fat nodes (listed as future work) can be exercised by the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._validation import require_nonempty, require_positive
from repro.hardware.node import FatNode


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect parameters used by the collective cost models.

    ``latency`` is the per-message startup cost in seconds (alpha) and
    ``bandwidth`` the point-to-point link bandwidth in GB/s (1/beta).
    """

    latency: float = 20e-6
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        require_positive("bandwidth", self.bandwidth)
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    def point_to_point_time(self, nbytes: float) -> float:
        """alpha + n*beta cost of one message of *nbytes* bytes."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + nbytes / (self.bandwidth * 1e9)


@dataclass(frozen=True)
class Cluster:
    """A named collection of fat nodes plus interconnect parameters."""

    name: str
    nodes: tuple[FatNode, ...]
    network: NetworkSpec = field(default_factory=NetworkSpec)

    def __post_init__(self) -> None:
        require_nonempty("nodes", self.nodes)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def is_homogeneous(self) -> bool:
        """True when every node has identical device specs."""
        first = self.nodes[0]
        return all(
            n.cpu == first.cpu and n.gpus == first.gpus for n in self.nodes
        )

    @property
    def peak_gflops(self) -> float:
        return sum(n.peak_gflops for n in self.nodes)

    def node(self, rank: int) -> FatNode:
        """The fat node at *rank* (master is rank 0 in the runtime)."""
        return self.nodes[rank]
