"""Execution traces of simulated runs, stored as spans.

A :class:`Trace` owns the run's :class:`~repro.obs.SpanTracer`, its
:class:`~repro.obs.MetricsRegistry` and its decision audit log.  The
span tracer is the one store of simulated activity:

* :meth:`Trace.record` appends one *activity* span per timed device
  activity (kernel, memory copy, network message, CPU block), parented
  under the rank's currently open phase when the device has been bound
  to a rank, and increments the per-device counters (busy seconds, both
  raw occupancy and overlap-merged union, flops, bytes, task counts)
  that online consumers such as the adaptive-feedback policy and the
  time-series sampler read;
* :meth:`Trace.begin_phase` / :meth:`Trace.end_phase` bracket runtime
  phases live, maintaining the job -> iteration -> phase span hierarchy
  per rank; receive waits, recovery brackets, membership transitions
  and alerts get spans of their own categories.

Every report view is derived from the spans: ``records``, ``filter``,
``makespan``, ``devices``, ``busy_time``, ``total_flops``, ``summary``
and ``gantt`` read the activity spans (every span whose category is not
in :data:`~repro.obs.analyze.critical_path.NON_ACTIVITY_CATEGORIES`) in
recording order, and ``phase_breakdown`` reads the ``phase`` spans.
The windowed queries (``since=``) remain for ad-hoc analysis; online
consumers read the monotonic counters instead (snapshot-and-diff, no
trace re-scans).
"""

from __future__ import annotations

from repro.obs import (
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    DEVICE_BYTES,
    DEVICE_FLOPS,
    DEVICE_TASKS,
    PHASE_SECONDS,
    IntervalUnion,
    MetricSampler,
    MetricsRegistry,
    Span,
    SpanTracer,
)
from repro.obs.analyze.audit import DecisionLog
from repro.obs.analyze.critical_path import NON_ACTIVITY_CATEGORIES

#: span track membership-transition spans land on (their own lane in
#: exports, mirroring the ``alerts`` track)
MEMBERSHIP_TRACK = "membership"

#: span category of membership spans — analysis passes that walk the
#: phase tree or pair comm spans skip this category entirely
MEMBERSHIP_CATEGORY = "membership"

#: glyphs :meth:`Trace.gantt` renders each record kind with; unknown
#: kinds fall back to their first alphanumeric character, then ``*``
GANTT_GLYPHS = {
    "compute": "#",
    "h2d": ">",
    "d2h": "<",
    "net": "~",
    "shuffle": "x",
    "reduce": "+",
    "overhead": ".",
}


def gantt_legend() -> str:
    """One-line legend for the gantt glyphs (``run --report`` timeline)."""
    known = " ".join(f"{ch}={kind}" for kind, ch in GANTT_GLYPHS.items())
    return f"legend: {known} (other kinds: first letter, else *)"


class Trace:
    """A run's span store, metrics and audit log, with summary views."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
    ) -> None:
        #: the run's metrics registry (shared with policies and the CLI)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: the run's hierarchical span store
        self.tracer = tracer if tracer is not None else SpanTracer()
        #: the run's scheduler-decision audit log (pure bookkeeping:
        #: appending records never perturbs the simulated schedule)
        self.audit = DecisionLog()
        #: optional tick-driven time-series sampler (attach_sampler);
        #: every mutation below ticks it first, so samples reflect the
        #: pre-mutation registry state at each elapsed grid instant
        self.sampler: MetricSampler | None = None
        #: optional host-side :class:`~repro.obs.selfprof.SelfProfiler`
        #: (attach_selfprof).  When set, the record hot path and the
        #: sampler tick are bracketed in ``obs:`` wall-clock scopes so
        #: the observability layer's own host cost is attributed, not
        #: hidden inside whichever subsystem happened to call it.
        self.selfprof = None
        #: optional structured :class:`~repro.obs.log.EventLog`
        #: (attach_log).  Every instrumentation site guards on
        #: ``log is None``, and emitting is pure host bookkeeping, so
        #: the simulated schedule is bitwise identical with or without
        #: logging — the same contract the sampler and selfprof keep.
        self.log = None
        self._busy_union: dict[str, IntervalUnion] = {}
        #: next message id handed to the communicator(s); trace-owned so
        #: ids stay unique across the worlds of rank-restart epochs
        self._next_msg_id = 1
        self._device_rank: dict[str, int] = {}
        self._open_phase: dict[int, Span] = {}
        self._iter_span: dict[int, Span] = {}
        self._job_span: dict[int, Span] = {}

    # ------------------------------------------------------------------
    def attach_sampler(self, sampler: MetricSampler) -> MetricSampler:
        """Bind a :class:`~repro.obs.MetricSampler` to this trace; it
        will be ticked by every mutation from here on.  Pure
        bookkeeping: sampling never schedules engine events, so the
        simulated schedule is bitwise identical with or without it."""
        sampler.bind(self)
        self.sampler = sampler
        return sampler

    def attach_selfprof(self, profiler) -> None:
        """Bind a host-side wall-clock profiler to this trace.  Pure
        host bookkeeping, like the sampler: profiling never schedules
        engine events, so the simulated schedule is bitwise identical
        with or without it."""
        self.selfprof = profiler

    def attach_log(self, log) -> None:
        """Bind a structured :class:`~repro.obs.log.EventLog` to this
        trace and hand it the live rank -> open-phase map, so every
        record it takes inherits the enclosing span id (plus the span's
        iteration / dag_node attrs).  Pure host bookkeeping — the
        simulated schedule is bitwise identical with or without it."""
        log.bind_phases(self._open_phase)
        self.log = log

    def rank_of(self, device: str) -> int | None:
        """The rank a device was bound to (None for unbound tracks)."""
        return self._device_rank.get(device)

    def tick(self, now: float) -> None:
        """Advance the attached sampler (no-op without one, and O(1)
        when no sampling-grid instant has elapsed)."""
        sampler = self.sampler
        if sampler is not None:
            # Only open an ``obs:sampler`` scope when a grid instant
            # actually elapsed (same predicate as advance()'s early
            # exit): ticks overwhelmingly no-op, and a scope around a
            # single comparison would drown the signal in its own cost.
            # The early-exit comparison itself stays charged to the
            # caller — nanoseconds, and documented in docs/PROFILING.md.
            prof = self.selfprof
            scoped = prof is not None and sampler._k * sampler.interval <= now
            if scoped:
                prof.begin("obs:sampler")
            try:
                sampler.advance(now)
            finally:
                if scoped:
                    prof.end()

    # ------------------------------------------------------------------
    def record(
        self,
        label: str,
        device: str,
        kind: str,
        start: float,
        end: float,
        nbytes: float = 0.0,
        flops: float = 0.0,
        attrs: dict | None = None,
    ) -> None:
        """Append one activity span of category *kind* on *device*'s track."""
        if end < start:
            raise ValueError(f"task {label!r}: end {end} precedes start {start}")
        if kind in NON_ACTIVITY_CATEGORIES:
            raise ValueError(f"task {label!r}: {kind!r} is not an activity kind")
        prof = self.selfprof
        if prof is not None:
            prof.begin("obs:trace.record")
        try:
            self.tick(end)
            m = self.metrics
            m.counter(DEVICE_BUSY_SECONDS).inc(end - start, device=device, kind=kind)
            m.counter(DEVICE_TASKS).inc(1, device=device, kind=kind)
            if flops:
                m.counter(DEVICE_FLOPS).inc(flops, device=device)
            if nbytes:
                m.counter(DEVICE_BYTES).inc(nbytes, device=device, kind=kind)
            union = self._busy_union.get(device)
            if union is None:
                union = self._busy_union[device] = IntervalUnion()
            added = union.add(start, end)
            if added:
                m.counter(DEVICE_BUSY_UNION_SECONDS).inc(added, device=device)
            span_attrs = {"nbytes": nbytes, "flops": flops}
            if attrs:
                span_attrs.update(attrs)
            self.tracer.record(
                label,
                device,
                start,
                end,
                category=kind,
                parent_id=self._block_parent(device, start),
                attrs=span_attrs,
            )
        finally:
            if prof is not None:
                prof.end()

    def record_recv(
        self,
        label: str,
        device: str,
        start: float,
        end: float,
        attrs: dict | None = None,
    ) -> None:
        """Append a ``recv``-category wait span on *device*'s track.

        Receive waits go to the span tracer only — they are time spent
        *blocked*, not device occupancy, so they must not feed the busy
        counters or the activity views the utilization and imbalance
        reports are built on.
        """
        self.tick(end)
        self.tracer.record(
            label,
            device,
            start,
            end,
            category="recv",
            parent_id=self._block_parent(device, start),
            attrs=attrs,
        )

    def _block_parent(self, device: str, start: float) -> int | None:
        """The open phase span of the rank this device is bound to."""
        rank = self._device_rank.get(device)
        if rank is None:
            return None
        phase = self._open_phase.get(rank)
        if phase is None or not phase.is_open or start < phase.start:
            return None
        return phase.span_id

    def bind_device(self, device: str, rank: int) -> None:
        """Declare that *device*'s activity belongs to *rank*'s node, so
        its block spans nest under that rank's open phase spans."""
        self._device_rank[device] = rank

    # ------------------------------------------------------------------
    @property
    def records(self) -> tuple[Span, ...]:
        """The activity spans, in recording order."""
        return tuple(self.filter())

    def filter(
        self,
        device: str | None = None,
        kind: str | None = None,
        since: float = 0.0,
    ) -> list[Span]:
        """Activity spans on track *device* of category *kind* starting
        at or after *since*, in recording order."""
        return [
            s
            for s in self.tracer.spans
            if s.category not in NON_ACTIVITY_CATEGORIES
            and (device is None or s.track == device)
            and (kind is None or s.category == kind)
            and (since <= 0.0 or s.start >= since)
        ]

    @property
    def makespan(self) -> float:
        """Latest end time across all activity (0 for an empty trace)."""
        return max((s.end for s in self.filter()), default=0.0)

    def busy_time(
        self, device: str, kind: str | None = None, since: float = 0.0
    ) -> float:
        """Union length of the busy intervals of *device*.

        Overlapping records (e.g. two streams on one GPU) are merged so a
        device can never appear more than 100 % utilized.  *since*
        restricts the query to records starting at or after that instant.
        The full-trace no-kind union is also maintained incrementally as
        the ``prs_device_busy_union_seconds_total`` counter.
        """
        if kind is None and since <= 0.0:
            union = self._busy_union.get(device)
            return union.total if union is not None else 0.0
        intervals = sorted(
            (r.start, r.end)
            for r in self.filter(device=device, kind=kind, since=since)
        )
        total = 0.0
        cur_start: float | None = None
        cur_end = 0.0
        for start, end in intervals:
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    def utilization(self, device: str, kind: str | None = None) -> float:
        """Busy fraction of *device* over the whole makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time(device, kind) / span

    def devices(self) -> list[str]:
        return list(dict.fromkeys(s.track for s in self.filter()))

    def total_flops(self, device: str | None = None, since: float = 0.0) -> float:
        return sum(s.attrs["flops"] for s in self.filter(device, since=since))

    def total_bytes(self, device: str | None = None, kind: str | None = None) -> float:
        return sum(s.attrs["nbytes"] for s in self.filter(device, kind))

    def observed_gflops(self, device: str, since: float = 0.0) -> float:
        """Achieved device-level rate: executed flops over busy wall time.

        This is the *measured* counterpart of the roofline-attainable
        ``F_c`` / ``F_g`` of Equations (6)/(7): everything the device did
        (kernels, staging, dispatch) counts toward busy time, so the rate
        reflects what the device actually delivers per busy second.
        Returns 0 when the device was idle over the window.
        """
        busy = self.busy_time(device, since=since)
        if busy <= 0.0:
            return 0.0
        return self.total_flops(device, since=since) / busy / 1e9

    # ------------------------------------------------------------------
    # Phase spans (job -> iteration -> phase hierarchy per rank)
    # ------------------------------------------------------------------
    def begin_phase(
        self,
        phase: str,
        rank: int,
        iteration: int,
        start: float,
        attrs: dict | None = None,
    ) -> Span:
        """Open a live phase span, creating the enclosing job/iteration
        spans of *rank* as needed.  Pair with :meth:`end_phase`.

        *attrs* merges extra attributes into the phase span (the task-DAG
        executor passes the node's graph position and blocking edge);
        ``rank``/``iteration`` are reserved keys and always win.
        """
        self.tick(start)
        track = f"rank{rank}"
        job = self._job_span.get(rank)
        if job is None:
            job = self.tracer.begin(
                "job", track, start, category="job", parent_id=None
            )
            self._job_span[rank] = job
        it_span = self._iter_span.get(rank)
        if it_span is None or it_span.attrs.get("iteration") != iteration:
            if it_span is not None and it_span.is_open:
                self.tracer.end(it_span, start)
            it_span = self.tracer.begin(
                f"iteration {iteration}",
                track,
                start,
                category="iteration",
                parent_id=job.span_id,
                attrs={"iteration": iteration},
            )
            self._iter_span[rank] = it_span
        span_attrs = dict(attrs) if attrs else {}
        span_attrs.update({"rank": rank, "iteration": iteration})
        span = self.tracer.begin(
            phase,
            track,
            start,
            category="phase",
            parent_id=it_span.span_id,
            attrs=span_attrs,
        )
        self._open_phase[rank] = span
        return span

    def end_phase(self, span: Span, end: float) -> None:
        """Close a live phase span and account its duration."""
        self.tick(end)
        self.tracer.end(span, end)
        rank = span.attrs["rank"]
        if self._open_phase.get(rank) is span:
            del self._open_phase[rank]
        self.metrics.counter(PHASE_SECONDS).inc(
            span.duration, phase=span.name, rank=str(rank)
        )

    def next_msg_id(self) -> int:
        """Allocate a trace-unique message id (paired send/recv spans)."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        return msg_id

    def annotate_phase(self, rank: int, **attrs) -> None:
        """Merge *attrs* into *rank*'s currently open phase span (no-op
        when no phase is open — e.g. retrospective bracketing)."""
        span = self._open_phase.get(rank)
        if span is not None and span.is_open:
            span.attrs.update(attrs)

    def record_recovery(
        self, label: str, rank: int, start: float, end: float, **attrs
    ) -> None:
        """Append a ``recovery``-category span on *rank*'s track (retry
        rounds, restart gaps), parented under its open phase if any."""
        self.tick(end)
        phase = self._open_phase.get(rank)
        parent = (
            phase.span_id
            if phase is not None and phase.is_open and start >= phase.start
            else None
        )
        self.tracer.record(
            label,
            f"rank{rank}",
            start,
            end,
            category="recovery",
            parent_id=parent,
            attrs=dict(attrs) if attrs else None,
        )

    def record_membership(
        self, label: str, start: float, end: float, **attrs
    ) -> None:
        """Append a ``membership``-category span on the dedicated
        ``membership`` track (one per epoch transition).  Parentless and
        closed, like alert spans, so tree-walking analysis passes ignore
        it while exports get their own membership lane."""
        self.tick(end)
        self.tracer.record(
            label,
            MEMBERSHIP_TRACK,
            start,
            max(end, start),
            category=MEMBERSHIP_CATEGORY,
            parent_id=None,
            attrs=dict(attrs) if attrs else None,
        )

    def close_rank(self, rank: int, end: float) -> None:
        """Close *rank*'s open iteration/job envelope spans at *end*.

        Used when a rank dies mid-job: its track ends at the failure
        instant instead of being stretched to the final makespan by
        :meth:`finalize`.
        """
        self.tick(end)
        phase = self._open_phase.pop(rank, None)
        if phase is not None and phase.is_open:
            self.end_phase(phase, max(end, phase.start))
        it_span = self._iter_span.pop(rank, None)
        if it_span is not None and it_span.is_open:
            self.tracer.end(it_span, max(end, it_span.start))
        job = self._job_span.pop(rank, None)
        if job is not None and job.is_open:
            self.tracer.end(job, max(end, job.start))

    def finalize(self, end_time: float) -> None:
        """Close the open job/iteration envelope spans at *end_time*."""
        self.tracer.finalize(end_time)
        self._open_phase.clear()
        self._iter_span.clear()
        self._job_span.clear()

    def phase_breakdown(self, rank: int = 0) -> dict[int, dict[str, float]]:
        """Per-iteration ``{phase: seconds}`` for one rank.

        Iteration ``-1`` holds the one-off setup phase.  Phases appear in
        execution order; a phase spanning zero simulated time still shows
        up with duration 0, so the breakdown's total equals the rank's
        busy wall time (which matches the job makespan up to the final
        convergence-broadcast latency on the other ranks).
        """
        out: dict[int, dict[str, float]] = {}
        for span in self.tracer.find(category="phase"):
            if span.end is None or span.attrs["rank"] != rank:
                continue
            per_iter = out.setdefault(span.attrs["iteration"], {})
            per_iter[span.name] = per_iter.get(span.name, 0.0) + span.duration
        return out

    # ------------------------------------------------------------------
    def gantt(self, width: int = 72) -> str:
        """Render a coarse per-device text timeline (debug aid)."""
        span = self.makespan
        if span <= 0:
            return "(empty trace)"
        glyph = GANTT_GLYPHS

        def glyph_for(kind: str) -> str:
            # Unknown kinds (DAG-introduced phase categories, custom
            # record tags) render as their first alphanumeric character
            # — stable and distinguishable — instead of collapsing every
            # novel kind onto an anonymous "*".
            ch = glyph.get(kind)
            if ch is not None:
                return ch
            for c in kind:
                if c.isalnum():
                    return c.lower()
            return "*"

        lines = []
        for device in self.devices():
            row = [" "] * width
            for r in self.filter(device=device):
                lo = int(r.start / span * (width - 1))
                hi = max(lo + 1, int(r.end / span * (width - 1)) + 1)
                ch = glyph_for(r.category)
                for i in range(lo, min(hi, width)):
                    row[i] = ch
            lines.append(f"{device:>16s} |{''.join(row)}|")
        lines.append(f"{'':>16s}  0{'':{width - 10}}{span:.3e}s")
        return "\n".join(lines)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-device totals: busy seconds, flops, bytes, utilization."""
        out: dict[str, dict[str, float]] = {}
        for device in self.devices():
            out[device] = {
                "busy": self.busy_time(device),
                "flops": self.total_flops(device),
                "bytes": self.total_bytes(device),
                "utilization": self.utilization(device),
            }
        return out
