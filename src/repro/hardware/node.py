"""Fat-node description: one host pairing CPUs with zero or more GPUs.

The paper calls a host that keeps both kinds of processing engines local a
*fat node* (§I).  A :class:`FatNode` groups one CPU spec (all sockets of a
host are treated as a single CPU device with aggregated peak and cores, as
the PRS spawns a single daemon thread for all CPU cores — paper §III.C.1)
with the GPUs attached to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._validation import require_nonempty
from repro.hardware.device import DeviceKind, DeviceSpec


@dataclass(frozen=True)
class FatNode:
    """One cluster host: a CPU device plus its attached GPUs.

    Parameters
    ----------
    name:
        Host name used in traces and reports.
    cpu:
        The (aggregated) CPU :class:`DeviceSpec` of the host.
    gpus:
        Tuple of GPU :class:`DeviceSpec`, possibly empty for CPU-only hosts.
    """

    name: str
    cpu: DeviceSpec
    gpus: tuple[DeviceSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.cpu.kind is not DeviceKind.CPU:
            raise ValueError(f"node {self.name}: cpu slot holds a {self.cpu.kind}")
        for g in self.gpus:
            if g.kind is not DeviceKind.GPU:
                raise ValueError(f"node {self.name}: gpus slot holds a {g.kind}")

    # ------------------------------------------------------------------
    @property
    def devices(self) -> tuple[DeviceSpec, ...]:
        """All devices, CPU first (the order device daemons are spawned)."""
        return (self.cpu, *self.gpus)

    @property
    def gpu(self) -> DeviceSpec:
        """The first GPU; raises if the node has none.

        The paper's experiments use one GPU per node even on Delta (which
        has two per host), so most call sites want exactly this.
        """
        if not self.gpus:
            raise ValueError(f"node {self.name} has no GPU")
        return self.gpus[0]

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    @property
    def peak_gflops(self) -> float:
        """Aggregate peak of every device on the node."""
        return self.cpu.peak_gflops + sum(g.peak_gflops for g in self.gpus)
