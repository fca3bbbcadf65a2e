"""Tests for the hierarchical span tracer and its exports."""

from __future__ import annotations

import json

import pytest

from repro.obs import SpanTracer
from repro.obs.profile import profile_jsonl
from repro.simulate.trace import Trace


def build_small_trace() -> SpanTracer:
    """job -> iteration -> phase on one track, blocks on another."""
    t = SpanTracer()
    job = t.begin("job", "rank0", 0.0, category="job")
    it0 = t.begin("iteration 0", "rank0", 0.0, category="iteration")
    ph = t.begin("map", "rank0", 0.1, category="phase")
    t.record(
        "map[0:8]",
        "node.cpu",
        0.1,
        0.4,
        category="compute",
        parent_id=ph.span_id,
        attrs={"flops": 100.0},
    )
    t.end(ph, 0.5)
    t.end(it0, 0.6)
    t.end(job, 0.6)
    return t


class TestNesting:
    def test_begin_auto_parents_on_innermost_open_span(self):
        t = SpanTracer()
        outer = t.begin("outer", "trk", 0.0)
        inner = t.begin("inner", "trk", 0.1)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_auto_parenting_is_per_track(self):
        t = SpanTracer()
        t.begin("a", "trk1", 0.0)
        other = t.begin("b", "trk2", 0.0)
        assert other.parent_id is None

    def test_explicit_parent_crosses_tracks(self):
        t = SpanTracer()
        phase = t.begin("map", "rank0", 0.0, category="phase")
        block = t.record(
            "blk", "gpu0", 0.1, 0.2, parent_id=phase.span_id
        )
        assert block.parent_id == phase.span_id
        assert [s.span_id for s in t.children(phase.span_id)] == [block.span_id]

    def test_end_enforces_lifo_per_track(self):
        t = SpanTracer()
        outer = t.begin("outer", "trk", 0.0)
        t.begin("inner", "trk", 0.1)
        with pytest.raises(ValueError, match="innermost"):
            t.end(outer, 0.5)

    def test_double_close_rejected(self):
        t = SpanTracer()
        s = t.begin("s", "trk", 0.0)
        t.end(s, 1.0)
        with pytest.raises(ValueError, match="already closed"):
            t.end(s, 2.0)

    def test_end_before_start_rejected(self):
        t = SpanTracer()
        s = t.begin("s", "trk", 1.0)
        with pytest.raises(ValueError, match="precedes"):
            t.end(s, 0.5)

    def test_record_end_before_start_rejected(self):
        t = SpanTracer()
        with pytest.raises(ValueError, match="precedes"):
            t.record("s", "trk", 1.0, 0.5)

    def test_finalize_closes_open_spans_innermost_first(self):
        t = SpanTracer()
        outer = t.begin("outer", "trk", 0.0)
        inner = t.begin("inner", "trk", 5.0)
        t.finalize(3.0)  # earlier than inner.start: clamps, never negative
        assert not any(s.is_open for s in t.spans)
        assert inner.end == 5.0
        assert outer.end == 3.0


class TestOrderingAndQueries:
    def test_spans_keep_recording_order(self):
        t = build_small_trace()
        assert [s.name for s in t.spans] == [
            "job", "iteration 0", "map", "map[0:8]",
        ]
        assert [s.span_id for s in t.spans] == [1, 2, 3, 4]

    def test_tracks_in_first_seen_order(self):
        events = build_small_trace().to_chrome()["traceEvents"]
        threads = [e["args"]["name"] for e in events
                   if e["name"] == "thread_name"]
        assert threads == ["rank0", "node.cpu"]

    def test_find_by_category_and_track(self):
        t = build_small_trace()
        assert [s.name for s in t.find(category="phase")] == ["map"]
        assert [s.name for s in t.find(track="node.cpu")] == ["map[0:8]"]


class TestConsistency:
    def test_clean_trace_has_no_problems(self):
        assert build_small_trace().check_consistency() == []

    def test_unclosed_span_reported(self):
        t = SpanTracer()
        t.begin("s", "trk", 0.0)
        assert any("never closed" in p for p in t.check_consistency())

    def test_child_escaping_parent_reported(self):
        t = SpanTracer()
        parent = t.begin("p", "trk", 0.0)
        t.end(parent, 1.0)
        t.record("c", "trk", 0.5, 2.0, parent_id=parent.span_id)
        assert any("escapes parent" in p for p in t.check_consistency())

    def test_unknown_parent_reported(self):
        t = SpanTracer()
        t.record("c", "trk", 0.0, 1.0, parent_id=999)
        assert any("unknown parent" in p for p in t.check_consistency())


class TestChromeExport:
    def test_event_schema(self):
        payload = build_small_trace().to_chrome()
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        # process name + (thread_name, thread_sort_index) per track
        assert len(meta) == 1 + 2 * 2
        assert len(complete) == 4
        for ev in complete:
            assert ev["pid"] == 1
            assert ev["tid"] >= 1
            assert ev["ts"] >= 0.0
            assert ev["dur"] >= 0.0
            assert "span_id" in ev["args"]

    def test_timestamps_scale_to_microseconds(self):
        t = SpanTracer()
        s = t.begin("s", "trk", 0.25)
        t.end(s, 0.75)
        ev = [e for e in t.to_chrome()["traceEvents"] if e["ph"] == "X"][0]
        assert ev["ts"] == pytest.approx(0.25e6)
        assert ev["dur"] == pytest.approx(0.5e6)

    def test_json_serializable(self):
        text = build_small_trace().to_chrome_json()
        payload = json.loads(text)
        assert payload["displayTimeUnit"] == "ms"

    def test_round_trip_preserves_structure(self):
        original = build_small_trace()
        rebuilt = SpanTracer.from_chrome(
            json.loads(original.to_chrome_json())
        )
        assert len(rebuilt) == len(original)
        for a, b in zip(original.spans, rebuilt.spans):
            assert b.span_id == a.span_id
            assert b.name == a.name
            assert b.track == a.track
            assert b.parent_id == a.parent_id
            assert b.category == a.category
            assert b.start == pytest.approx(a.start, abs=1e-12)
            assert b.end == pytest.approx(a.end, abs=1e-12)
        # attrs survive (span_id/parent_id bookkeeping stripped back out)
        assert rebuilt.spans[3].attrs == {"flops": 100.0}
        assert rebuilt.check_consistency(tol=1e-9) == []


class TestJsonl:
    """The span lines of the profile JSONL export."""

    def test_one_object_per_span(self):
        text = profile_jsonl(Trace(tracer=build_small_trace()))
        lines = text.splitlines()[1:]  # after the profile_meta header
        assert len(lines) == 4
        objs = [json.loads(line) for line in lines]
        assert [o["name"] for o in objs] == [
            "job", "iteration 0", "map", "map[0:8]",
        ]
        assert objs[3]["parent_id"] == objs[2]["span_id"]

    def test_empty_tracer_renders_empty(self):
        lines = profile_jsonl(Trace()).splitlines()
        assert [list(json.loads(line)) for line in lines] == [["profile_meta"]]
