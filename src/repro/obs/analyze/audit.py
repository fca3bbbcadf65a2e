"""The scheduler-decision audit log and the model-drift series.

The analytic scheduler is only trustworthy if every decision it takes can
be replayed against what actually happened (the lesson of StarPU's
history-based performance models).  Every Equation (1)-(8) split — the
construction-time static split, each adaptive-feedback refit, each
fault-triggered recovery refit — appends a :class:`DecisionRecord` to the
trace-owned :class:`DecisionLog` carrying the model *inputs* (arithmetic
intensities, attainable rates, staging mode, partition bytes) and
*outputs* (``p``, ``MinBs``, the Equation (9) overlap ``op``).  The
polling policies audit their block-plan decisions the same way.

Post-run, :func:`model_drift` pairs each split decision with the split
the devices *observed* (per-iteration CPU share of executed flops, read
from the span tree) and emits a per-iteration drift series; a drift near
0 means the roofline model predicted the hardware, a persistent offset
means the model is mis-calibrated — exactly the signal the
adaptive-feedback policy closes the loop on.

Appending a record is pure bookkeeping: no simulated events, so enabling
the audit cannot perturb a schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: decision kinds that choose a CPU fraction (participate in drift)
SPLIT_KINDS = ("static-split", "adaptive-refit", "recovery-refit")


@dataclass(frozen=True)
class DecisionRecord:
    """One scheduling decision: model inputs in, knobs out.

    ``iteration`` is the driver iteration the decision was taken *in*
    (``-1`` for construction time); a split decided in iteration ``i``
    governs iteration ``i + 1`` onwards.
    """

    kind: str
    node: str
    time: float
    iteration: int
    inputs: dict[str, Any] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "node": self.node,
            "time": self.time,
            "iteration": self.iteration,
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
        }


class DecisionLog:
    """Append-only store of scheduling decisions, owned by the Trace."""

    def __init__(self) -> None:
        self._records: list[DecisionRecord] = []

    def append(self, record: DecisionRecord) -> None:
        self._records.append(record)

    def record(
        self,
        kind: str,
        node: str,
        time: float,
        iteration: int,
        inputs: dict[str, Any] | None = None,
        outputs: dict[str, Any] | None = None,
    ) -> DecisionRecord:
        rec = DecisionRecord(
            kind=kind,
            node=node,
            time=time,
            iteration=iteration,
            inputs=dict(inputs) if inputs else {},
            outputs=dict(outputs) if outputs else {},
        )
        self.append(rec)
        return rec

    @property
    def records(self) -> tuple[DecisionRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def filter(
        self, kind: str | None = None, node: str | None = None
    ) -> list[DecisionRecord]:
        out: Iterable[DecisionRecord] = self._records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if node is not None:
            out = [r for r in out if r.node == node]
        return list(out)

    def splits(self, node: str | None = None) -> list[DecisionRecord]:
        """The split-choosing decisions, in record order."""
        out = [r for r in self._records if r.kind in SPLIT_KINDS]
        if node is not None:
            out = [r for r in out if r.node == node]
        return out


# ---------------------------------------------------------------------------
# Observed splits and model drift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftPoint:
    """Predicted vs observed CPU fraction for one node-iteration."""

    node: str
    iteration: int
    predicted_p: float
    observed_p: float
    decision_kind: str

    @property
    def drift(self) -> float:
        return self.observed_p - self.predicted_p

    def to_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "iteration": self.iteration,
            "predicted_p": self.predicted_p,
            "observed_p": self.observed_p,
            "drift": self.drift,
            "decision_kind": self.decision_kind,
        }


def observed_splits(tracer) -> dict[tuple[str, int], tuple[float, float]]:
    """Per (node, iteration): (cpu_flops, gpu_flops) executed.

    Read from the span tree: compute-block spans carry ``flops`` attrs
    and are parented under phase spans that carry the iteration number,
    so this works on saved profiles too.
    """
    by_id = {s.span_id: s for s in tracer.spans}
    out: dict[tuple[str, int], tuple[float, float]] = {}
    for span in tracer.spans:
        if span.category != "compute" or span.end is None:
            continue
        flops = float(span.attrs.get("flops", 0.0) or 0.0)
        if flops <= 0.0:
            continue
        track = span.track
        if ".cpu" in track:
            cls = 0
        elif ".gpu" in track:
            cls = 1
        else:
            continue
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is None or "iteration" not in parent.attrs:
            continue
        node = track.rsplit(".", 1)[0]
        key = (node, int(parent.attrs["iteration"]))
        cpu, gpu = out.get(key, (0.0, 0.0))
        if cls == 0:
            cpu += flops
        else:
            gpu += flops
        out[key] = (cpu, gpu)
    return out


def _governing_decision(
    splits: list[DecisionRecord], iteration: int
) -> DecisionRecord | None:
    """The last split decided strictly before *iteration* began."""
    governing = None
    for rec in splits:
        if rec.iteration < iteration:
            governing = rec  # records are in decision order
    return governing


def model_drift(tracer, audit: DecisionLog) -> list[DriftPoint]:
    """The per-iteration drift series: observed minus predicted ``p``.

    Only node-iterations where both device classes executed flops *and*
    a split decision governed the iteration produce a point.
    """
    observed = observed_splits(tracer)
    points: list[DriftPoint] = []
    for (node, iteration), (cpu, gpu) in sorted(observed.items()):
        total = cpu + gpu
        if total <= 0.0:
            continue
        rec = _governing_decision(audit.splits(node=node), iteration)
        if rec is None or "p" not in rec.outputs:
            continue
        points.append(
            DriftPoint(
                node=node,
                iteration=iteration,
                predicted_p=float(rec.outputs["p"]),
                observed_p=cpu / total,
                decision_kind=rec.kind,
            )
        )
    return points


def max_abs_drift(points: list[DriftPoint]) -> float:
    return max((abs(p.drift) for p in points), default=0.0)


def audited_decisions(tracer, audit: DecisionLog) -> list[dict[str, Any]]:
    """Every decision record, split kinds annotated with the observed
    split of the first iteration they governed (``None`` when that
    iteration ran no flops — e.g. a refit after the final pass)."""
    observed = observed_splits(tracer)
    out: list[dict[str, Any]] = []
    for rec in audit.records:
        entry = rec.to_dict()
        if rec.kind in SPLIT_KINDS:
            key = (rec.node, rec.iteration + 1)
            cpu, gpu = observed.get(key, (0.0, 0.0))
            total = cpu + gpu
            if total > 0.0 and "p" in rec.outputs:
                entry["observed_p"] = cpu / total
                entry["drift"] = cpu / total - float(rec.outputs["p"])
            else:
                entry["observed_p"] = None
                entry["drift"] = None
        out.append(entry)
    return out
