"""Critical-path extraction over a finished run's span tree.

The span tracer records the full job -> iteration -> phase -> device-block
hierarchy, but a Perfetto timeline still leaves "why was this run exactly
this long?" to the reader.  This module answers it mechanically: starting
from the span that finishes the job, walk backwards through the tree and,
at every instant, charge the time to the innermost span that was the
*last finisher* — the activity the makespan was actually waiting on.

The result is a chain of :class:`PathSegment` that tiles ``[0, makespan]``
exactly:

* segments attributed to **childless** spans (device blocks, network
  messages, leaf phases) are *work* — a real activity on the critical
  chain;
* segments attributed to a span that *has* children are *slack* — time
  inside an envelope (phase, iteration, job) not covered by any child's
  completion: dispatch overhead, barrier waits, finalize stretching.

``work + slack == makespan`` is the tiling invariant
(:meth:`CriticalPath.tiling_gap`); the acceptance bound everywhere in
this repo is 1e-6 s, same as the phase-tiling check of
:func:`repro.obs.check_profile`.

With a :class:`~repro.obs.analyze.commgraph.CommGraph` (the *comm*
argument) the walk additionally follows **message edges across rank
boundaries**: when the last finisher is a ``recv`` wait span, the time
is split at the matched message's send instant — the in-flight part
becomes slack waiting **on the network** (attributed to the send span),
and everything before the send recurses into the *sender's* rank tree,
where envelope gaps become slack waiting **on the sender** and real
activities stay work.  Every slack segment then carries a ``wait_on``
label in ``{"sender", "network", "compute"}`` and
:meth:`CriticalPath.slack_decomposition` sums to :attr:`CriticalPath.slack`
by construction.  Without *comm*, recv spans are treated as opaque
leaves and all slack is ``wait_on="compute"`` — the pre-PR-5 behavior.

Works on a live :class:`~repro.obs.spans.SpanTracer` or on one rebuilt
from a Chrome export (``SpanTracer.from_chrome``), so ``repro analyze``
can post-process saved ``*.trace.json`` profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.spans import Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (commgraph is leaf)
    from repro.obs.analyze.commgraph import CommGraph

#: categories of the per-rank envelope spans (never leaves in a healthy run)
ENVELOPE_CATEGORIES = frozenset({"job", "iteration", "phase"})

#: categories of the spans that are not device activity: the envelopes,
#: receive waits, recovery brackets, membership transitions and alerts.
#: Every other span is one timed activity on one device track (kernel,
#: copy, message, CPU block) — what busy time and utilization count.
NON_ACTIVITY_CATEGORIES = ENVELOPE_CATEGORIES | {
    "recv", "recovery", "membership", "alert",
}

#: message-edge recursion cap — past this many nested cross-rank hops the
#: remaining wait is charged as ``wait_on="sender"`` without recursing
#: (keeps the walk inside Python's stack on pathological chains; the
#: tiling invariant is unaffected either way)
MAX_MESSAGE_HOPS = 128


@dataclass(frozen=True)
class PathSegment:
    """One contiguous stretch of the critical path.

    ``span_id`` is ``None`` only for the synthetic pre-/post-job filler
    segments that keep the path tiling ``[0, makespan]`` when the root
    span does not span the whole run.
    """

    start: float
    end: float
    track: str
    name: str
    category: str
    span_id: int | None
    is_work: bool
    #: for slack segments: what the path was waiting on — ``"sender"``,
    #: ``"network"``, or ``"compute"``; always ``None`` for work
    wait_on: str | None = None
    #: the task-DAG edge this stretch sits behind (the owning phase
    #: span's ``dag_edge`` attribute, e.g. ``"shuffle->reduce"``), when
    #: the run came from the DAG runtime; ``None`` otherwise
    edge: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "track": self.track,
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "is_work": self.is_work,
            "wait_on": self.wait_on,
            "edge": self.edge,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class CriticalPath:
    """The run's longest dependency chain, tiling ``[0, makespan]``."""

    segments: tuple[PathSegment, ...]
    makespan: float

    @property
    def work(self) -> float:
        """Seconds of the path spent in childless (leaf) activities."""
        return sum(s.duration for s in self.segments if s.is_work)

    @property
    def slack(self) -> float:
        """Seconds of the path inside envelopes with no active child."""
        return sum(s.duration for s in self.segments if not s.is_work)

    @property
    def length(self) -> float:
        return self.work + self.slack

    @property
    def tiling_gap(self) -> float:
        """``|makespan - (work + slack)|`` — 0 for a consistent profile."""
        return abs(self.makespan - self.length)

    def by_resource(self) -> dict[str, float]:
        """Critical seconds per track, largest share first."""
        totals: dict[str, float] = {}
        for seg in self.segments:
            totals[seg.track] = totals.get(seg.track, 0.0) + seg.duration
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def by_category(self) -> dict[str, float]:
        """Critical seconds per span category, largest share first."""
        totals: dict[str, float] = {}
        for seg in self.segments:
            key = seg.category or "(uncategorized)"
            totals[key] = totals.get(key, 0.0) + seg.duration
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def slack_decomposition(self) -> dict[str, float]:
        """Slack seconds by what the path waited on.

        Keys are ``sender`` (the producing rank had not sent yet, and its
        own timeline shows envelope gaps), ``network`` (the message was in
        flight — wire time, retransmit timers, fault delays), and
        ``compute`` (intra-rank envelope gaps: dispatch, barriers,
        finalize).  The values sum to :attr:`slack` exactly, because every
        slack segment carries one of the three labels.
        """
        out = {"sender": 0.0, "network": 0.0, "compute": 0.0}
        for seg in self.segments:
            if not seg.is_work:
                key = seg.wait_on or "compute"
                out[key] = out.get(key, 0.0) + seg.duration
        return out

    @property
    def message_hops(self) -> int:
        """Cross-rank message edges the path followed (network waits)."""
        return sum(1 for s in self.segments if s.wait_on == "network")

    def slack_by_edge(self) -> dict[str, float]:
        """Slack seconds per task-DAG edge, largest first.

        Only covers slack segments whose owning phase span carries the
        DAG executor's ``dag_edge`` attribute — i.e. the concrete
        dependency the blocked phase was waiting behind.  Empty for
        profiles recorded before the DAG runtime.
        """
        totals: dict[str, float] = {}
        for seg in self.segments:
            if not seg.is_work and seg.edge is not None:
                totals[seg.edge] = totals.get(seg.edge, 0.0) + seg.duration
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan_s": self.makespan,
            "work_s": self.work,
            "slack_s": self.slack,
            "tiling_gap_s": self.tiling_gap,
            "slack_decomposition": self.slack_decomposition(),
            "slack_by_edge": self.slack_by_edge(),
            "message_hops": self.message_hops,
            "by_resource": self.by_resource(),
            "by_category": self.by_category(),
            "segments": [s.to_dict() for s in self.segments],
        }


def _filler(
    start: float, end: float, name: str, track: str = "", wait_on: str = "compute"
) -> PathSegment:
    return PathSegment(
        start=start,
        end=end,
        track=track,
        name=name,
        category="slack",
        span_id=None,
        is_work=False,
        wait_on=wait_on,
    )


def critical_path(
    tracer: SpanTracer,
    makespan: float | None = None,
    tol: float = 1e-12,
    comm: "CommGraph | None" = None,
) -> CriticalPath:
    """Extract the critical path of a finished run.

    Parameters
    ----------
    tracer:
        The span store; still-open spans are ignored (analyze finished
        runs — ``Trace.finalize`` closes everything).
    makespan:
        The job makespan.  Defaults to the latest span end, which is what
        a saved profile knows.
    tol:
        Slop for float comparisons while walking; segments shorter than
        *tol* are dropped (the tiling error this introduces is bounded by
        ``n_segments * tol``, far inside the 1e-6 acceptance bound).
    comm:
        A :class:`~repro.obs.analyze.commgraph.CommGraph` built over the
        same tracer.  When given, ``recv`` wait spans on the path are
        resolved through their matched message: in-flight time becomes
        ``wait_on="network"`` slack and pre-send time recurses into the
        sender's rank tree (``wait_on="sender"`` for its envelope gaps).
    """
    # Alert spans (rule firings, PR 7) are bookkeeping riding the
    # tracer, not execution: they must never seed the walk or show up
    # as a track's root, or the path/slack tiling would attribute
    # simulated time to something no device executed.
    spans = [
        s
        for s in tracer.spans
        if s.end is not None and s.category != "alert"
    ]
    if makespan is None:
        makespan = max((s.end for s in spans), default=0.0)
    if not spans:
        segs = (
            (_filler(0.0, makespan, "(empty trace)"),) if makespan > 0 else ()
        )
        return CriticalPath(segs, makespan)

    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)

    def active_end(span: Span) -> float:
        """Latest end among childless descendants — the *real* finish
        time, immune to ``finalize`` stretching every open envelope to
        the same instant."""
        kids = children.get(span.span_id)
        if not kids:
            return span.end  # type: ignore[return-value]
        return max(active_end(c) for c in kids)

    # The critical root is the span the job genuinely ended in: latest
    # end, ties broken by the latest real (leaf) finish, then by track
    # name for determinism.
    root = max(roots, key=lambda s: (s.end, active_end(s), s.track))

    roots_by_track: dict[str, list[Span]] = {}
    for r in roots:
        roots_by_track.setdefault(r.track, []).append(r)
    by_recv = comm.by_recv_span if comm is not None else {}

    segments: list[PathSegment] = []

    def owning_edge(span: Span) -> str | None:
        """The task-DAG edge this span sits behind: its own ``dag_edge``
        attribute or the nearest annotated ancestor's (leaf task/net
        spans inherit from their phase envelope)."""
        cur: Span | None = span
        while cur is not None:
            edge = cur.attrs.get("dag_edge")
            if edge is not None:
                return edge
            cur = (
                by_id.get(cur.parent_id)
                if cur.parent_id is not None
                else None
            )
        return None

    def emit(
        span: Span, lo: float, hi: float, is_work: bool, wait_on: str | None = None
    ) -> None:
        if hi - lo > tol:
            segments.append(
                PathSegment(
                    start=lo,
                    end=hi,
                    track=span.track,
                    name=span.name,
                    category=span.category,
                    span_id=span.span_id,
                    is_work=is_work,
                    wait_on=None if is_work else (wait_on or "compute"),
                    # Slack inside a DAG-annotated phase envelope sits
                    # behind that phase's concrete blocking edge.
                    edge=owning_edge(span),
                )
            )

    def walk(span: Span, lo: float, hi: float, via: str | None = None,
             hops: int = 0) -> None:
        """Cover ``[lo, hi]`` of *span* with critical segments, walking
        backwards from *hi* and always following the last finisher.

        *via* is ``"sender"`` while covering another rank's timeline on
        behalf of a receive wait — envelope gaps found there are the
        receiver waiting on the *sender*, not on its own compute.  *hops*
        counts nested message edges (see :data:`MAX_MESSAGE_HOPS`).
        """
        kids = children.get(span.span_id)
        if not kids:
            msg = by_recv.get(span.span_id)
            if msg is not None:
                resolve_recv(span, msg, lo, hi, hops)
            elif span.category == "recv":
                # Unmatched wait (timeout annotation, truncated profile,
                # or no comm graph supplied): with pairing available this
                # is time spent on a sender that never delivered; without
                # it, keep the pre-comm behavior of an opaque work leaf.
                if comm is not None:
                    emit(span, lo, hi, False, wait_on="sender")
                else:
                    emit(span, lo, hi, True)
            else:
                emit(span, lo, hi, True)
            return
        t = hi
        while t - lo > tol:
            best: Span | None = None
            for c in kids:
                # A candidate must end inside (lo, t] AND move the cursor
                # strictly backwards — a zero-length child sitting exactly
                # at t (empty phases exist) can never make progress.
                if (
                    c.end <= t + tol
                    and c.end - lo > tol
                    and max(c.start, lo) < t - tol
                ):
                    if best is None or (c.end, c.start, c.span_id) > (
                        best.end,
                        best.start,
                        best.span_id,
                    ):
                        best = c
            if best is None:
                # No child finishes inside [lo, t]: the envelope itself
                # owns the remainder (dispatch, waiting, setup).
                emit(span, lo, t, False, wait_on=via or "compute")
                return
            child_end = min(best.end, t)  # type: ignore[arg-type]
            emit(span, child_end, t, False, wait_on=via or "compute")
            child_start = max(best.start, lo)
            walk(best, child_start, child_end, via, hops)
            t = child_start

    def resolve_recv(
        span: Span, msg: Any, lo: float, hi: float, hops: int
    ) -> None:
        """Split a receive wait ``[lo, hi]`` through its matched message.

        Time after the send started is the message in flight — slack on
        the *network*, attributed to the send span so the path lands on
        the sender's track.  Time before that is the sender not having
        sent yet: recurse into the sender's own rank tree (strictly
        earlier than *hi*, so the recursion terminates).
        """
        if hops >= MAX_MESSAGE_HOPS:
            emit(span, lo, hi, False, wait_on="sender")
            return
        s0 = msg.sent_at
        net_lo = max(lo, s0)
        if hi - net_lo > tol:
            send_span = by_id.get(msg.send_span_id)
            if send_span is not None:
                emit(send_span, net_lo, hi, False, wait_on="network")
            else:
                segments.append(
                    _filler(
                        net_lo, hi, f"msg {msg.msg_id} in flight",
                        track=span.track, wait_on="network",
                    )
                )
        if s0 - lo > tol:
            cover_rank(f"rank{msg.src_node}", lo, min(s0, hi), hops + 1)

    def cover_rank(track: str, lo: float, hi: float, hops: int) -> None:
        """Cover ``[lo, hi]`` with the activity of another rank's tree(s),
        charging uncovered remainders as waiting on that sender."""
        t = hi
        cands = sorted(
            roots_by_track.get(track, ()),
            key=lambda s: (s.end, s.start, s.span_id),
            reverse=True,
        )
        for r in cands:
            if r.end <= lo + tol or r.start >= t - tol:  # type: ignore[operator]
                continue
            seg_hi = min(r.end, t)  # type: ignore[arg-type]
            if t - seg_hi > tol:
                segments.append(
                    _filler(
                        seg_hi, t, f"(waiting on {track})",
                        track=track, wait_on="sender",
                    )
                )
            walk(r, max(r.start, lo), seg_hi, via="sender", hops=hops)
            t = max(r.start, lo)
            if t - lo <= tol:
                return
        if t - lo > tol:
            segments.append(
                _filler(
                    lo, t, f"(waiting on {track})",
                    track=track, wait_on="sender",
                )
            )

    walk(root, root.start, root.end)  # type: ignore[arg-type]

    # Keep the path tiling [0, makespan] even when the root does not.
    if root.start > tol:
        segments.append(_filler(0.0, root.start, "(before job)"))
    if makespan - root.end > tol:  # type: ignore[operator]
        segments.insert(
            0, _filler(root.end, makespan, "(after job)")  # type: ignore[arg-type]
        )

    segments.reverse()  # walked backwards; present chronologically
    return CriticalPath(tuple(segments), makespan)
