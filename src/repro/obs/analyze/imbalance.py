"""Imbalance and straggler diagnostics per (rank, device).

The paper's whole premise is that the Equation (8) split makes the CPU
and GPU "finish together"; this module measures how close a run actually
came.  Three views, all derivable from a span tracer alone (so they work
on saved profiles too):

* **device loads** — overlap-merged busy seconds per device track (the
  same :class:`~repro.obs.metrics.IntervalUnion` arithmetic the live
  ``prs_device_busy_union_seconds_total`` counter uses), busy/idle
  fractions of the makespan, task/flop totals;
* **imbalance factor** — max over compute devices of busy seconds,
  divided by their mean: 1.0 is a perfectly balanced node, the paper's
  "finish together" optimum;
* **stragglers** — the slowest device blocks, each scored against the
  median block duration of its own device (a 1.0x block is normal; a
  3x block is the tail the dynamic policies exist to absorb).

When a live metrics registry is available (``repro analyze`` without a
saved profile, ``run --json``), :func:`steal_summary` additionally
reports per-policy steal efficiency from the
``prs_policy_steals_total`` / ``prs_policy_blocks_dispatched_total``
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import (
    POLICY_BLOCKS,
    POLICY_STEALS,
    IntervalUnion,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanTracer

from repro.obs.analyze.critical_path import NON_ACTIVITY_CATEGORIES


def _is_block_span(span: Span) -> bool:
    """Device-block / leaf activity spans: everything that is not an
    envelope, recovery bracket, membership transition, alert or receive
    wait (a blocked ``recv`` is idleness by definition — counting it as
    busy time would inflate utilization and hide the very imbalance
    this module scores).
    """
    return (
        span.end is not None
        and span.category not in NON_ACTIVITY_CATEGORIES
        and not span.track.startswith("rank")
    )


def _is_compute_device(track: str) -> bool:
    return ".cpu" in track or ".gpu" in track


@dataclass(frozen=True)
class DeviceLoad:
    """Busy/idle accounting for one device track over the run."""

    device: str
    busy_s: float
    busy_fraction: float
    tasks: int
    flops: float

    @property
    def idle_fraction(self) -> float:
        return max(0.0, 1.0 - self.busy_fraction)

    def to_dict(self) -> dict[str, Any]:
        return {
            "device": self.device,
            "busy_s": self.busy_s,
            "busy_fraction": self.busy_fraction,
            "idle_fraction": self.idle_fraction,
            "tasks": self.tasks,
            "flops": self.flops,
        }


@dataclass(frozen=True)
class Straggler:
    """One outlier device block, scored against its device's median."""

    device: str
    label: str
    start: float
    end: float
    duration: float
    ratio_to_median: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "device": self.device,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "duration_s": self.duration,
            "ratio_to_median": self.ratio_to_median,
        }


@dataclass(frozen=True)
class ImbalanceReport:
    """Load-balance diagnosis of one finished run."""

    makespan: float
    devices: tuple[DeviceLoad, ...]
    imbalance_factor: float
    stragglers: tuple[Straggler, ...]
    steals: dict[str, dict[str, float]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan_s": self.makespan,
            "imbalance_factor": self.imbalance_factor,
            "devices": [d.to_dict() for d in self.devices],
            "stragglers": [s.to_dict() for s in self.stragglers],
            "steals": self.steals,
        }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def device_loads(
    tracer: SpanTracer, makespan: float | None = None
) -> tuple[DeviceLoad, ...]:
    """Overlap-merged busy time per device track, busiest first."""
    blocks: dict[str, list[Span]] = {}
    latest = 0.0
    for span in tracer.spans:
        if span.end is not None:
            latest = max(latest, span.end)
        if _is_block_span(span):
            blocks.setdefault(span.track, []).append(span)
    if makespan is None:
        makespan = latest
    loads = []
    for device, spans in blocks.items():
        union = IntervalUnion()
        flops = 0.0
        for span in spans:
            union.add(span.start, span.end)  # type: ignore[arg-type]
            flops += float(span.attrs.get("flops", 0.0) or 0.0)
        loads.append(
            DeviceLoad(
                device=device,
                busy_s=union.total,
                busy_fraction=union.total / makespan if makespan > 0 else 0.0,
                tasks=len(spans),
                flops=flops,
            )
        )
    return tuple(sorted(loads, key=lambda d: (-d.busy_s, d.device)))


def find_stragglers(
    tracer: SpanTracer, top: int = 3, min_ratio: float = 1.0
) -> tuple[Straggler, ...]:
    """The *top* slowest compute blocks, scored against their device's
    median block duration.  *min_ratio* filters out blocks that are slow
    only because every block on that device is slow."""
    durations: dict[str, list[float]] = {}
    candidates: list[Span] = []
    for span in tracer.spans:
        if _is_block_span(span) and span.category == "compute":
            durations.setdefault(span.track, []).append(span.duration)
            candidates.append(span)
    medians = {dev: _median(vals) for dev, vals in durations.items()}
    scored = []
    for span in candidates:
        med = medians[span.track]
        ratio = span.duration / med if med > 0 else 0.0
        if ratio >= min_ratio:
            scored.append(
                Straggler(
                    device=span.track,
                    label=span.name,
                    start=span.start,
                    end=span.end,  # type: ignore[arg-type]
                    duration=span.duration,
                    ratio_to_median=ratio,
                )
            )
    scored.sort(key=lambda s: (-s.duration, s.device, s.start))
    return tuple(scored[:top])


def steal_summary(metrics: MetricsRegistry) -> dict[str, dict[str, float]]:
    """Per-policy steal accounting from the live counters.

    ``efficiency`` is the fraction of dispatches that respected the
    policy's affinity (1.0 = no steals); only policies that dispatched
    at least one block appear.
    """
    dispatches = metrics.counter(POLICY_BLOCKS)
    steals = metrics.counter(POLICY_STEALS)
    per_policy: dict[str, dict[str, float]] = {}
    for labels, value in dispatches.samples():
        policy = labels.get("policy", "?")
        entry = per_policy.setdefault(
            policy, {"dispatches": 0.0, "steals": 0.0}
        )
        entry["dispatches"] += value
    for labels, value in steals.samples():
        policy = labels.get("policy", "?")
        entry = per_policy.setdefault(
            policy, {"dispatches": 0.0, "steals": 0.0}
        )
        entry["steals"] += value
    for entry in per_policy.values():
        n = entry["dispatches"]
        entry["efficiency"] = 1.0 - entry["steals"] / n if n > 0 else 0.0
    return per_policy


def analyze_imbalance(
    tracer: SpanTracer,
    makespan: float | None = None,
    metrics: MetricsRegistry | None = None,
    top_stragglers: int = 3,
) -> ImbalanceReport:
    """Full imbalance diagnosis; *metrics* adds steal efficiency."""
    loads = device_loads(tracer, makespan)
    if makespan is None:
        makespan = max((s.end for s in tracer.spans if s.end is not None),
                       default=0.0)
    compute = [d.busy_s for d in loads if _is_compute_device(d.device)]
    if compute and sum(compute) > 0:
        factor = max(compute) / (sum(compute) / len(compute))
    else:
        factor = 1.0
    return ImbalanceReport(
        makespan=makespan,
        devices=loads,
        imbalance_factor=factor,
        stragglers=find_stragglers(tracer, top=top_stragglers),
        steals=steal_summary(metrics) if metrics is not None else {},
    )
