"""Labeled metrics: counters, gauges, and bucketed histograms.

The registry is the runtime's quantitative memory: every component that
does work (device daemons, scheduling policies, the region allocator, the
communicator) increments named, labeled series here, and anything that
wants *observed* rates — the adaptive-feedback policy, the post-run
report, the ``repro metrics`` CLI — reads them back without re-scanning
the execution trace.

Design points, all zero-dependency:

* Metric types follow the Prometheus data model (counter / gauge /
  histogram with cumulative buckets) and :meth:`MetricsRegistry.render`
  emits the text exposition format, so the output drops into ``promtool``
  or a Pushgateway unchanged.
* Label sets are plain keyword arguments; a (sorted) label tuple keys
  each sample, so one metric object holds every series of that name.
* :class:`IntervalUnion` maintains an exact union of busy intervals
  incrementally — the device-level "busy seconds" counter stays
  overlap-merged (a device can never exceed 100 % utilization) while
  still being a cheap monotonic counter that observers diff instead of
  re-merging the whole trace.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterator

# ---------------------------------------------------------------------------
# Well-known series names (the contract between instrumentation and readers;
# see docs/OBSERVABILITY.md for the full catalogue).
# ---------------------------------------------------------------------------

DEVICE_BUSY_SECONDS = "prs_device_busy_seconds_total"
DEVICE_BUSY_UNION_SECONDS = "prs_device_busy_union_seconds_total"
DEVICE_FLOPS = "prs_device_flops_total"
DEVICE_BYTES = "prs_device_bytes_total"
DEVICE_TASKS = "prs_device_tasks_total"
PHASE_SECONDS = "prs_phase_seconds_total"
ITERATIONS = "prs_iterations_total"
POLICY_BLOCKS = "prs_policy_blocks_dispatched_total"
POLICY_STEALS = "prs_policy_steals_total"
POLICY_REFITS = "prs_policy_refits_total"
POLICY_CPU_FRACTION = "prs_policy_cpu_fraction"
POLICY_QUEUE_DEPTH = "prs_policy_queue_depth"
POLICY_QUEUE_DEPTH_CURRENT = "prs_policy_queue_depth_current"
SPLIT_CPU_FRACTION = "prs_split_cpu_fraction"
REGION_OBJECT_ALLOCS = "prs_region_object_allocs_total"
REGION_BACKING_ALLOCS = "prs_region_backing_allocs_total"
REGION_BYTES_SERVED = "prs_region_bytes_served_total"
REGION_BYTES_COPIED = "prs_region_bytes_copied_total"
REGION_RESETS = "prs_region_resets_total"
REGION_CAPACITY_BYTES = "prs_region_capacity_bytes"
#: labeled ``{src, dst, tag, link}`` per delivered message — the metric
#: twin of the span-level comm matrix (``tag`` is the coarse tag *class*,
#: e.g. ``shuffle``/``state``/``heartbeat``, to bound label cardinality)
COMM_MESSAGES = "prs_comm_messages_total"
COMM_BYTES = "prs_comm_bytes_total"
COMM_TIMEOUTS = "prs_comm_timeouts_total"
COMM_RETRANSMITS = "prs_comm_retransmits_total"
COMM_HEARTBEATS = "prs_comm_heartbeats_total"
SHUFFLE_PAIRS = "prs_shuffle_pairs_total"
SHUFFLE_BYTES = "prs_shuffle_bytes_total"
RECOVERY_FAULTS_INJECTED = "prs_recovery_faults_injected_total"
RECOVERY_BLOCK_FAILURES = "prs_recovery_block_failures_total"
RECOVERY_BLOCKS_RETRIED = "prs_recovery_blocks_retried_total"
RECOVERY_DEVICES_BLACKLISTED = "prs_recovery_devices_blacklisted_total"
RECOVERY_SPLIT_REFITS = "prs_recovery_split_refits_total"
RECOVERY_CHECKPOINTS = "prs_recovery_checkpoints_total"
RECOVERY_RANK_RESTARTS = "prs_recovery_rank_restarts_total"
MEMBERSHIP_EPOCH = "prs_membership_epoch"
MEMBERSHIP_LIVE_RANKS = "prs_membership_live_ranks"
MEMBERSHIP_EVENTS = "prs_membership_events_total"
AUTOSCALE_DECISIONS = "prs_autoscale_decisions_total"
JOB_MAKESPAN_SECONDS = "prs_job_makespan_seconds"
JOB_ITERATIONS = "prs_job_iterations"
ALERTS_TOTAL = "prs_alerts_total"

#: default histogram buckets for simulated durations (seconds)
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

#: buckets for small integral quantities (queue depths, block counts)
COUNT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*key, *extra]
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


class Metric:
    """Shared plumbing: a name, help text, and per-label-set samples."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._samples: dict[LabelKey, Any] = {}

    def labels(self) -> list[dict[str, str]]:
        return [dict(key) for key in self._samples]

    def __len__(self) -> int:
        return len(self._samples)


class Counter(Metric):
    """A monotonically increasing sum per label set."""

    type_name = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name}: negative increment {value}")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set (e.g. all devices of one metric)."""
        return sum(self._samples.values())

    def samples(self) -> list[tuple[dict[str, str], float]]:
        return [(dict(k), v) for k, v in self._samples.items()]

    def render(self) -> list[str]:
        # Sorted label sets: the text exposition is byte-stable no
        # matter in which order series were first touched.
        return [
            f"{self.name}{_format_labels(key)} {_format_value(value)}"
            for key, value in sorted(self._samples.items())
        ]


class Gauge(Metric):
    """A value that can go up and down per label set."""

    type_name = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._samples[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        return [(dict(k), v) for k, v in self._samples.items()]

    def render(self) -> list[str]:
        return [
            f"{self.name}{_format_labels(key)} {_format_value(value)}"
            for key, value in sorted(self._samples.items())
        ]


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Cumulative-bucket histogram with interpolated quantiles.

    ``bounds`` are the finite upper bucket boundaries (sorted,
    deduplicated); a ``+Inf`` bucket is always appended, so every
    observation lands somewhere.  An observation equal to a boundary
    counts into that boundary's bucket (``le`` semantics).
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        finite = sorted({float(b) for b in buckets if math.isfinite(b)})
        if not finite:
            raise ValueError(f"histogram {name}: needs >= 1 finite bucket bound")
        self.bounds: tuple[float, ...] = (*finite, math.inf)

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        series = self._samples.get(key)
        if series is None:
            series = _HistogramSeries(len(self.bounds))
            self._samples[key] = series
        idx = bisect.bisect_left(self.bounds, value)
        series.bucket_counts[idx] += 1
        series.sum += value
        series.count += 1

    # ------------------------------------------------------------------
    def count(self, **labels: Any) -> int:
        series = self._samples.get(_label_key(labels))
        return 0 if series is None else series.count

    def total(self, **labels: Any) -> float:
        series = self._samples.get(_label_key(labels))
        return 0.0 if series is None else series.sum

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the *q*-quantile by linear interpolation in-bucket.

        Matches PromQL's ``histogram_quantile``: the lower edge of the
        first bucket is 0, and a target landing in the ``+Inf`` bucket
        clamps to the highest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        series = self._samples.get(_label_key(labels))
        if series is None or series.count == 0:
            return math.nan
        target = q * series.count
        cumulative = 0
        for idx, n in enumerate(series.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                upper = self.bounds[idx]
                if math.isinf(upper):
                    return self.bounds[-2]
                lower = 0.0 if idx == 0 else self.bounds[idx - 1]
                fraction = (target - cumulative) / n
                return lower + (upper - lower) * fraction
            cumulative += n
        return self.bounds[-2]

    def render(self) -> list[str]:
        lines: list[str] = []
        for key, series in sorted(self._samples.items(), key=lambda kv: kv[0]):
            cumulative = 0
            for bound, n in zip(self.bounds, series.bucket_counts):
                cumulative += n
                le = _format_labels(key, (("le", _format_value(bound)),))
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            lines.append(
                f"{self.name}_sum{_format_labels(key)} "
                f"{_format_value(series.sum)}"
            )
            lines.append(f"{self.name}_count{_format_labels(key)} {series.count}")
        return lines


class MetricsRegistry:
    """Create-or-get access to named metrics plus text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{metric.type_name}, not {cls.type_name}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every series."""
        lines: list[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-serializable snapshot: name -> [{labels, value(s)}]."""
        out: dict[str, list[dict[str, Any]]] = {}
        for metric in self:
            entries: list[dict[str, Any]] = []
            if isinstance(metric, Histogram):
                for key, series in metric._samples.items():
                    entries.append(
                        {
                            "labels": dict(key),
                            "count": series.count,
                            "sum": series.sum,
                            "buckets": {
                                _format_value(b): n
                                for b, n in zip(
                                    metric.bounds, series.bucket_counts
                                )
                            },
                        }
                    )
            else:
                for labels, value in metric.samples():  # type: ignore[attr-defined]
                    entries.append({"labels": labels, "value": value})
            out[metric.name] = entries
        return out

    def to_typed_dict(self) -> dict[str, dict[str, Any]]:
        """Self-describing snapshot: name -> {help, type, samples}.

        The JSON counterpart of :meth:`render`'s ``# HELP`` / ``# TYPE``
        comment lines — a consumer needs no out-of-band registry to
        interpret the samples (Prometheus text-format parity).
        """
        samples = self.to_dict()
        return {
            metric.name: {
                "help": metric.help,
                "type": metric.type_name,
                "samples": samples[metric.name],
            }
            for metric in self
        }


class IntervalUnion:
    """Exact incremental union of real intervals.

    ``add(start, end)`` merges the interval into the set and returns the
    *newly covered* length — exactly the increment a monotonic
    "overlap-merged busy seconds" counter needs.  Internally the disjoint
    intervals stay sorted, so each add is O(log n + merged).
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.total = 0.0

    def add(self, start: float, end: float) -> float:
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        if end == start:
            return 0.0
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo == hi:  # touches nothing: plain insert
            self._starts.insert(lo, start)
            self._ends.insert(lo, end)
            added = end - start
        else:  # merge intervals [lo, hi) into one
            new_start = min(start, self._starts[lo])
            new_end = max(end, self._ends[hi - 1])
            existing = sum(
                self._ends[i] - self._starts[i] for i in range(lo, hi)
            )
            added = (new_end - new_start) - existing
            self._starts[lo:hi] = [new_start]
            self._ends[lo:hi] = [new_end]
        self.total += added
        return added

    def __len__(self) -> int:
        return len(self._starts)

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self._starts, self._ends))
