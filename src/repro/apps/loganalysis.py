"""Log analysis — the paper's other named low-intensity workload.

"Generally, for applications that have low arithmetic intensity, such as
log analysis and GEMV, the performance bottleneck lies in the disk I/O"
(§I).  One input item is one access-log line; map parses its block and
emits ``(status_class, 1)`` and ``(path, bytes)`` pairs, the combiner
collapses them locally, reduce sums globally.  Arithmetic intensity is a
fraction of a flop per byte — the far-left of Figure 4, where Equation (8)
sends essentially everything to the CPU.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np

from repro.core.intensity import ConstantIntensity, IntensityProfile
from repro.runtime.api import Block, MapReduceApp

def parse_line(line: str) -> tuple[str, str, int, int] | None:
    """(host, path, status, bytes) or None for malformed lines."""
    try:
        head, tail = line.split('"', 1)
        request, rest = tail.rsplit('"', 1)
        path = request.split()[1]
        status_str, size_str = rest.split()
        return head.split()[0], path, int(status_str), int(size_str)
    except (ValueError, IndexError):
        return None


class LogAnalysisApp(MapReduceApp):
    """Status-class counts and per-path byte totals over an access log."""

    name = "loganalysis"

    def __init__(self, lines: list[str]) -> None:
        if not lines:
            raise ValueError("lines must be non-empty")
        self.lines = lines
        self._avg_bytes = float(np.mean([len(l) + 1 for l in lines]))
        # ~10 flops of integer work per ~70-byte line.
        self._intensity = ConstantIntensity(0.15, label="loganalysis")

    # ------------------------------------------------------------------
    def n_items(self) -> int:
        return len(self.lines)

    def item_bytes(self) -> float:
        return self._avg_bytes

    def intensity(self) -> IntensityProfile:
        return self._intensity

    def map_output_bytes(self, block: Block) -> float:
        return 512.0  # a handful of aggregates

    # ------------------------------------------------------------------
    def cpu_map(self, block: Block) -> list[tuple[Any, Any]]:
        status_counts: Counter[str] = Counter()
        path_bytes: Counter[str] = Counter()
        malformed = 0
        for line in self.lines[block.start : block.stop]:
            parsed = parse_line(line)
            if parsed is None:
                malformed += 1
                continue
            _, path, status, size = parsed
            status_counts[f"{status // 100}xx"] += 1
            path_bytes[path] += size
        pairs: list[tuple[Any, Any]] = [
            (("status", cls), count) for cls, count in status_counts.items()
        ]
        pairs.extend(
            (("bytes", path), total) for path, total in path_bytes.items()
        )
        if malformed:
            pairs.append((("malformed", ""), malformed))
        return pairs

    def cpu_reduce(self, key: Any, values: list[Any]) -> Any:
        return int(sum(values))

    def combiner(self, key: Any, values: list[Any]) -> Any:
        return int(sum(values))

    # ------------------------------------------------------------------
    def reference(self) -> dict[Any, int]:
        """Direct single-pass aggregation for verification."""
        out = self.cpu_map(Block(0, len(self.lines)))
        return {k: int(v) for k, v in out}
