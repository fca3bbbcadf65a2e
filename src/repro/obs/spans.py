"""Hierarchical span tracing with Chrome trace-event export.

A :class:`Span` is one named, timed interval on one *track* (a rank, a
device, a NIC).  Spans nest — the runtime builds the hierarchy

    job -> iteration -> phase -> device-block

by opening spans as work begins and closing them as it ends; the tracer
keeps one open-span stack per track, so ``begin`` calls auto-parent onto
the innermost open span of their track, and retrospective ``record``
calls may name any span as parent (the device daemons hang their block
spans under the rank's currently open phase).

Exports:

* :meth:`SpanTracer.to_chrome` — the Chrome trace-event JSON object
  format (``{"traceEvents": [...]}`` with ``ph: "X"`` complete events and
  thread-name metadata), loadable directly in Perfetto / chrome://tracing;
* :meth:`SpanTracer.from_chrome` — rebuilds a tracer from the Chrome
  export (round-trip tested).

All timestamps are simulated seconds; the Chrome export scales to the
microseconds the trace-event schema expects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

#: sentinel: "parent = innermost open span on my track"
AUTO = object()


@dataclass
class Span:
    """One timed interval on one track, optionally inside a parent span."""

    span_id: int
    name: str
    track: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    category: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def is_open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "category": self.category,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """An append-mostly store of spans with per-track open stacks."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._stacks: dict[str, list[Span]] = {}
        self._tracks: list[str] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def _new_span(
        self,
        name: str,
        track: str,
        start: float,
        end: float | None,
        parent_id: Any,
        category: str,
        attrs: dict[str, Any] | None,
    ) -> Span:
        if parent_id is AUTO:
            stack = self._stacks.get(track)
            parent_id = stack[-1].span_id if stack else None
        span = Span(
            span_id=self._next_id,
            name=name,
            track=track,
            start=start,
            end=end,
            parent_id=parent_id,
            category=category,
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        self._spans.append(span)
        self._by_id[span.span_id] = span
        if track not in self._stacks:
            self._stacks[track] = []
            self._tracks.append(track)
        return span

    def begin(
        self,
        name: str,
        track: str,
        start: float,
        *,
        category: str = "",
        parent_id: Any = AUTO,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span; it becomes the auto-parent for its track."""
        span = self._new_span(name, track, start, None, parent_id, category, attrs)
        self._stacks[track].append(span)
        return span

    def end(
        self, span: Span, end: float, attrs: dict[str, Any] | None = None
    ) -> Span:
        """Close *span* (which must be the innermost open on its track)."""
        if not span.is_open:
            raise ValueError(f"span {span.name!r} already closed")
        if end < span.start:
            raise ValueError(
                f"span {span.name!r}: end {end} precedes start {span.start}"
            )
        stack = self._stacks.get(span.track, [])
        if not stack or stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} is not the innermost open span of "
                f"track {span.track!r}"
            )
        stack.pop()
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        return span

    def record(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        *,
        category: str = "",
        parent_id: Any = AUTO,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Append an already-finished span (retrospective bracketing)."""
        if end < start:
            raise ValueError(f"span {name!r}: end {end} precedes start {start}")
        return self._new_span(name, track, start, end, parent_id, category, attrs)

    # ------------------------------------------------------------------
    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self._spans if s.parent_id == span_id]

    def find(
        self, category: str | None = None, track: str | None = None
    ) -> list[Span]:
        out: Iterable[Span] = self._spans
        if category is not None:
            out = [s for s in out if s.category == category]
        if track is not None:
            out = [s for s in out if s.track == track]
        return list(out)

    def finalize(self, end_time: float) -> None:
        """Close every still-open span at *end_time* (outermost last)."""
        for stack in self._stacks.values():
            while stack:
                span = stack[-1]
                self.end(span, max(end_time, span.start))

    # ------------------------------------------------------------------
    def check_consistency(self, tol: float = 1e-9) -> list[str]:
        """Self-checks; returns a list of problems (empty = consistent)."""
        problems: list[str] = []
        for span in self._spans:
            if span.is_open:
                problems.append(
                    f"span {span.span_id} {span.name!r} on {span.track!r} "
                    "never closed"
                )
                continue
            if span.end < span.start:  # defensive: constructors reject this
                problems.append(
                    f"span {span.span_id} {span.name!r} has negative "
                    f"duration ({span.start} -> {span.end})"
                )
            if span.parent_id is not None:
                parent = self._by_id.get(span.parent_id)
                if parent is None:
                    problems.append(
                        f"span {span.span_id} {span.name!r} references "
                        f"unknown parent {span.parent_id}"
                    )
                    continue
                if span.start < parent.start - tol or (
                    parent.end is not None and span.end > parent.end + tol
                ):
                    problems.append(
                        f"span {span.span_id} {span.name!r} "
                        f"[{span.start}, {span.end}] escapes parent "
                        f"{parent.name!r} [{parent.start}, {parent.end}]"
                    )
        return problems

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object format (Perfetto-loadable).

        Every span becomes one ``ph: "X"`` complete event; tracks map to
        threads of a single process, named via ``M`` metadata events.
        Still-open spans are exported as if closed at the latest known
        end time (the tracer itself is not mutated).
        """
        max_end = max(
            (s.end for s in self._spans if s.end is not None), default=0.0
        )
        tids = {track: tid for tid, track in enumerate(self._tracks, start=1)}
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "PRS simulated run"},
            }
        ]
        for track, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        for span in self._spans:
            end = span.end if span.end is not None else max(max_end, span.start)
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": span.category or "span",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "pid": 1,
                    "tid": tids[span.track],
                    "args": args,
                }
            )
            # Matched send/recv spans additionally emit a flow arrow:
            # ``s`` (start) anchored at the send span's start, ``f``
            # (finish, binding to the enclosing slice's end) at the recv
            # span's end.  Perfetto draws these as arrows between the two
            # slices.  ``from_chrome`` ignores them — the ``msg_id`` span
            # attr is the authoritative pairing key.
            msg_id = span.attrs.get("msg_id")
            if msg_id is not None and span.category in ("net", "recv"):
                flow: dict[str, Any] = {
                    "name": "msg",
                    "cat": "comm.flow",
                    "id": msg_id,
                    "pid": 1,
                    "tid": tids[span.track],
                }
                if span.category == "net":
                    flow["ph"] = "s"
                    flow["ts"] = span.start * 1e6
                else:
                    flow["ph"] = "f"
                    flow["bp"] = "e"
                    flow["ts"] = end * 1e6
                events.append(flow)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=False)

    @classmethod
    def from_chrome(cls, payload: dict[str, Any]) -> "SpanTracer":
        """Rebuild a tracer from :meth:`to_chrome` output."""
        tracer = cls()
        track_of: dict[int, str] = {}
        events = payload.get("traceEvents", [])
        for ev in events:
            if ev.get("ph") == "M" and ev.get("name") == "thread_name":
                track_of[ev["tid"]] = ev["args"]["name"]
        for ev in events:
            if ev.get("ph") != "X":
                continue
            args = dict(ev.get("args", {}))
            span_id = args.pop("span_id", None)
            parent_id = args.pop("parent_id", None)
            start = ev["ts"] / 1e6
            span = tracer.record(
                ev["name"],
                track_of.get(ev["tid"], f"tid{ev['tid']}"),
                start,
                start + ev["dur"] / 1e6,
                category="" if ev.get("cat") == "span" else ev.get("cat", ""),
                parent_id=parent_id,
                attrs=args,
            )
            tracer._adopt_id(span, span_id)
        return tracer

    def _adopt_id(self, span: Span, span_id: int | None) -> None:
        """Re-key a just-rebuilt *span* under its exported *span_id* (no-op
        for ``None``), so parent ids read from the same export resolve."""
        if span_id is None:
            return
        del self._by_id[span.span_id]
        span.span_id = span_id
        self._by_id[span_id] = span
        self._next_id = max(self._next_id, span_id + 1)
