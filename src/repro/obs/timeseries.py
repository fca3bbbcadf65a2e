"""Simulated-clock time-series sampling over the metrics registry.

The metrics registry (PR 2) answers "how much, in total?"; this module
answers "how much, *when*?".  A :class:`MetricSampler` attached to a
:class:`~repro.simulate.trace.Trace` snapshots every registered counter
and gauge onto a fixed grid of simulated instants ``t_k = k *
sample_interval`` and appends the values to ring-buffered
:class:`Series`.  Windowed aggregators (rate, mean, max, interpolated
p50/p99) are computed lazily from the rings, so sampling itself is a
few dict walks per grid crossing and *nothing* at other times.

Zero-perturbation contract
--------------------------
The sampler never talks to the simulation engine: it schedules no
events, holds no processes, and advances no clocks.  Instead it is
*tick-driven*: every trace mutation (``Trace.record``, ``record_recv``,
``begin_phase`` ...) first calls :meth:`MetricSampler.advance` with the
current simulated time, and the sampler back-fills any grid instants
that have elapsed since the previous tick with the *pre-mutation*
registry state.  A run with sampling enabled is therefore bitwise
identical — same schedule, same spans, same app output — to one
without; the only difference is the extra series riding in the trace.
``benchmarks/bench_obs_overhead.py`` asserts this (0 extra engine
events at the default interval).

Besides raw counter/gauge samples the sampler derives, at each grid
instant, the signals the rule engine (:mod:`repro.obs.rules`) watches:

* ``prs_device_busy_fraction{device=...}`` — busy-union seconds gained
  per elapsed second since the previous sample (from the incremental
  ``prs_device_busy_union_seconds_total`` counter);
* ``prs_device_imbalance`` — max/mean busy fraction across non-NIC
  devices (1.0 = perfectly balanced, 0 when everything was idle);
* ``prs_link_utilization{link=...}`` — α/β-modelled wire seconds
  offered per elapsed second on each registered link class
  (``Δmessages·α + Δbytes/β``, the model of Section 3.3);
* ``prs_link_model_ratio{link=...}`` — observed NIC busy seconds over
  α/β-modelled seconds in the same window; a sustained ratio well
  above 1 means the network is delivering below model (degradation,
  contention, retransmit storms) — exactly what ``net_slow`` faults
  produce.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.metrics import (
    COMM_BYTES,
    COMM_MESSAGES,
    Counter,
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    Gauge,
    LabelKey,
    _label_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulate.trace import Trace

#: default sampling grid pitch in simulated seconds.  The bundled
#: workloads have makespans in the 0.02-1 s range, so 1 ms yields tens
#: to hundreds of samples — enough for the built-in rules' windows
#: while keeping snapshot work negligible.
DEFAULT_SAMPLE_INTERVAL = 1e-3

#: default ring capacity per series.  At the default interval this
#: covers ~8 simulated seconds of history per series before the ring
#: starts dropping its oldest samples, far beyond any bundled workload.
DEFAULT_SERIES_CAPACITY = 8192

#: derived series names (registered nowhere — they exist only as
#: sampled series, never as registry metrics)
DEVICE_BUSY_FRACTION = "prs_device_busy_fraction"
DEVICE_IMBALANCE = "prs_device_imbalance"
LINK_UTILIZATION = "prs_link_utilization"
LINK_MODEL_RATIO = "prs_link_model_ratio"


class Series:
    """A ring buffer of ``(t, value)`` samples with lazy aggregators.

    Aggregation windows are inclusive on both ends: ``[t0, t1]``.
    When the ring is full the oldest sample is dropped (``dropped``
    counts how many); all aggregators operate on what remains.
    """

    __slots__ = ("name", "labels", "_points", "dropped")

    def __init__(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)
        self.dropped = 0

    # ------------------------------------------------------------------
    def append(self, t: float, value: float) -> None:
        points = self._points
        if points and t < points[-1][0]:
            raise ValueError(
                f"series {self.name!r}: sample time {t} precedes previous "
                f"sample {points[-1][0]}"
            )
        if len(points) == points.maxlen:
            self.dropped += 1
        points.append((t, float(value)))

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> list[tuple[float, float]]:
        return list(self._points)

    @property
    def last_t(self) -> float | None:
        return self._points[-1][0] if self._points else None

    def window(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Samples with ``t0 <= t <= t1`` (inclusive both ends)."""
        return [(t, v) for t, v in self._points if t0 <= t <= t1]

    # ------------------------------------------------------------------
    # Lazy windowed aggregators
    # ------------------------------------------------------------------
    def value(self, at: float) -> float | None:
        """Latest sampled value at or before *at* (None before data)."""
        out = None
        for t, v in self._points:
            if t > at:
                break
            out = v
        return out

    def increase(self, t0: float, t1: float) -> float | None:
        """Last minus first sampled value in the window (for counters)."""
        pts = self.window(t0, t1)
        if len(pts) < 2:
            return None
        return pts[-1][1] - pts[0][1]

    def rate(self, t0: float, t1: float) -> float | None:
        """Per-second increase over the window, using actual sample
        timestamps (None with fewer than two samples or zero elapsed)."""
        pts = self.window(t0, t1)
        if len(pts) < 2:
            return None
        dt = pts[-1][0] - pts[0][0]
        if dt <= 0.0:
            return None
        return (pts[-1][1] - pts[0][1]) / dt

    def mean(self, t0: float, t1: float) -> float | None:
        pts = self.window(t0, t1)
        if not pts:
            return None
        return sum(v for _, v in pts) / len(pts)

    def vmax(self, t0: float, t1: float) -> float | None:
        pts = self.window(t0, t1)
        return max((v for _, v in pts), default=None)

    def vmin(self, t0: float, t1: float) -> float | None:
        pts = self.window(t0, t1)
        return min((v for _, v in pts), default=None)

    def quantile(self, q: float, t0: float, t1: float) -> float | None:
        """Interpolated quantile of the sampled values in the window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        values = sorted(v for _, v in self.window(t0, t1))
        if not values:
            return None
        if len(values) == 1:
            return values[0]
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        return values[lo] + (values[hi] - values[lo]) * frac

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "series": self.name,
            "labels": dict(self.labels),
            "t": [t for t, _ in self._points],
            "v": [v for _, v in self._points],
            "dropped": self.dropped,
        }


class SeriesBank:
    """All sampled series of one run, keyed by (name, label set)."""

    def __init__(self, capacity: int = DEFAULT_SERIES_CAPACITY) -> None:
        self.capacity = capacity
        self._series: dict[tuple[str, LabelKey], Series] = {}

    # ------------------------------------------------------------------
    def get_or_create(self, name: str, key: LabelKey) -> Series:
        series = self._series.get((name, key))
        if series is None:
            series = Series(name, dict(key), capacity=self.capacity)
            self._series[(name, key)] = series
        return series

    def get(self, name: str, **labels: Any) -> Series | None:
        return self._series.get((name, _label_key(labels)))

    def matching(self, name: str, labels: dict[str, str] | None = None) -> list[Series]:
        """All series of *name* whose labels contain *labels* as a
        subset, in sorted label order (deterministic)."""
        want = {k: str(v) for k, v in (labels or {}).items()}
        out = []
        for (sname, key), series in sorted(self._series.items()):
            if sname != name:
                continue
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                out.append(series)
        return out

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._series})

    def __iter__(self) -> Iterator[Series]:
        for key in sorted(self._series):
            yield self._series[key]

    def __len__(self) -> int:
        return len(self._series)

    @property
    def total_points(self) -> int:
        return sum(len(s) for s in self._series.values())

    # ------------------------------------------------------------------
    def to_jsonl_lines(self) -> list[str]:
        """One compact JSON object per series, in sorted (name, labels)
        order — byte-stable for identical runs."""
        return [
            json.dumps(series.to_dict(), sort_keys=True)
            for series in self
        ]

    @classmethod
    def from_dicts(cls, payloads: list[dict[str, Any]],
                   capacity: int = DEFAULT_SERIES_CAPACITY) -> "SeriesBank":
        """Rebuild a bank from :meth:`Series.to_dict` payloads."""
        bank = cls(capacity=capacity)
        for payload in payloads:
            labels = {str(k): str(v) for k, v in payload.get("labels", {}).items()}
            series = bank.get_or_create(
                payload["series"], _label_key(labels)
            )
            for t, v in zip(payload.get("t", []), payload.get("v", [])):
                series.append(float(t), float(v))
            series.dropped = int(payload.get("dropped", 0))
        return bank


class MetricSampler:
    """Tick-driven grid sampler over a trace's metrics registry.

    Attach with :meth:`Trace.attach_sampler`; the trace then calls
    :meth:`advance` at the top of every mutation, and the sampler emits
    one snapshot per elapsed grid instant ``k * interval``.  A snapshot
    at grid time *g* therefore reflects every update applied strictly
    before the first mutation at simulated time ``>= g`` — a
    deterministic function of the (deterministic) event stream.
    """

    def __init__(
        self,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> None:
        if not interval > 0.0:
            raise ValueError(f"sample interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.bank = SeriesBank(capacity=capacity)
        self._trace: "Trace | None" = None
        self._k = 0  # next grid index to sample (t_k = k * interval)
        self._last_t: float | None = None  # time of the latest snapshot
        #: α/β wire models per link class: link -> (alpha_s, bytes_per_s)
        self._link_models: dict[str, tuple[float, float]] = {}
        #: previous raw values backing the derived probes
        self._prev: dict[str, float] = {}
        self.finalized = False

    # ------------------------------------------------------------------
    def bind(self, trace: "Trace") -> None:
        self._trace = trace

    def register_link_model(
        self, link: str, latency_s: float, bytes_per_s: float
    ) -> None:
        """Declare the α/β wire model of one link class (idempotent —
        rank-restart epochs re-register the same model)."""
        if latency_s < 0.0 or bytes_per_s <= 0.0:
            raise ValueError(
                f"link {link!r}: need latency >= 0 and bandwidth > 0, got "
                f"alpha={latency_s}, beta={bytes_per_s}"
            )
        self._link_models[link] = (float(latency_s), float(bytes_per_s))

    @property
    def total_samples(self) -> int:
        return self.bank.total_points

    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Back-fill every grid instant in ``(last, now]`` with the
        current registry state.  O(1) when no grid instant elapsed."""
        if self._trace is None or self.finalized:
            return
        interval = self.interval
        while self._k * interval <= now:
            self._snapshot(self._k * interval)
            self._k += 1

    def finalize(self, end: float) -> None:
        """Emit the remaining grid instants up to *end* plus one final
        off-grid snapshot at *end* itself (end-state anchor), then stop
        accepting ticks."""
        if self._trace is None or self.finalized:
            return
        self.advance(end)
        if self._last_t is None or self._last_t < end:
            self._snapshot(end)
        self.finalized = True

    # ------------------------------------------------------------------
    def _snapshot(self, t: float) -> None:
        trace = self._trace
        assert trace is not None
        registry = trace.metrics
        bank = self.bank
        raw: dict[str, float] = {}
        busy_union: dict[LabelKey, float] = {}
        net_busy = 0.0
        link_msgs: dict[str, float] = {}
        link_bytes: dict[str, float] = {}
        for metric in registry:  # name-sorted
            if isinstance(metric, Counter) or isinstance(metric, Gauge):
                name = metric.name
                for key, value in sorted(metric._samples.items()):
                    bank.get_or_create(name, key).append(t, value)
                    if name == DEVICE_BUSY_UNION_SECONDS:
                        busy_union[key] = value
                    elif name == DEVICE_BUSY_SECONDS:
                        if dict(key).get("kind") == "net":
                            net_busy += value
                    elif name == COMM_MESSAGES:
                        link = dict(key).get("link", "")
                        link_msgs[link] = link_msgs.get(link, 0.0) + value
                    elif name == COMM_BYTES:
                        link = dict(key).get("link", "")
                        link_bytes[link] = link_bytes.get(link, 0.0) + value
        self._derived(t, raw, busy_union, net_busy, link_msgs, link_bytes)
        self._prev = raw
        self._last_t = t

    def _derived(
        self,
        t: float,
        raw: dict[str, float],
        busy_union: dict[LabelKey, float],
        net_busy: float,
        link_msgs: dict[str, float],
        link_bytes: dict[str, float],
    ) -> None:
        prev = self._prev
        last_t = self._last_t
        dt = (t - last_t) if last_t is not None else 0.0
        bank = self.bank

        # Per-device busy fraction from the incremental union counter.
        fractions: list[float] = []
        for key, value in sorted(busy_union.items()):
            device = dict(key).get("device", "")
            raw_key = f"busy::{device}"
            raw[raw_key] = value
            delta = value - prev.get(raw_key, 0.0)
            fraction = (delta / dt) if dt > 0.0 else 0.0
            bank.get_or_create(DEVICE_BUSY_FRACTION, key).append(t, fraction)
            if not device.startswith("net."):
                fractions.append(fraction)

        # Imbalance across the co-processing devices (NICs excluded).
        if fractions:
            mean = sum(fractions) / len(fractions)
            imbalance = (max(fractions) / mean) if mean > 0.0 else 0.0
            bank.get_or_create(DEVICE_IMBALANCE, ()).append(t, imbalance)

        # α/β-modelled offered load and observed-vs-model ratio per
        # registered link class.
        raw["net_busy"] = net_busy
        net_delta = net_busy - prev.get("net_busy", 0.0)
        for link in sorted(self._link_models):
            alpha, bytes_per_s = self._link_models[link]
            msgs = link_msgs.get(link, 0.0)
            nbytes = link_bytes.get(link, 0.0)
            raw[f"msgs::{link}"] = msgs
            raw[f"bytes::{link}"] = nbytes
            modelled = (
                (msgs - prev.get(f"msgs::{link}", 0.0)) * alpha
                + (nbytes - prev.get(f"bytes::{link}", 0.0)) / bytes_per_s
            )
            key = _label_key({"link": link})
            utilization = (modelled / dt) if dt > 0.0 else 0.0
            bank.get_or_create(LINK_UTILIZATION, key).append(t, utilization)
            # Observed NIC busy over modelled wire seconds: > 1 means
            # the wire is slower than the α/β model says it should be.
            ratio = (net_delta / modelled) if modelled > 1e-12 else 0.0
            bank.get_or_create(LINK_MODEL_RATIO, key).append(t, ratio)
