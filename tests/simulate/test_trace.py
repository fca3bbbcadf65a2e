"""Tests for execution-trace aggregation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.profile import loads_profile, profile_jsonl
from repro.simulate.trace import Trace


def make_trace(entries):
    trace = Trace()
    for label, device, kind, start, end in entries:
        trace.record(label, device, kind, start, end)
    return trace


class TestRecord:
    def test_duration(self):
        t = make_trace([("t", "d", "compute", 1.0, 3.5)])
        assert t.records[0].duration == 2.5

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            Trace().record("t", "d", "compute", 3.0, 1.0)

    def test_rejects_non_activity_kind(self):
        # recv waits, envelopes, recovery, membership and alerts have
        # their own record paths and never count as device activity
        for kind in ("recv", "phase", "recovery", "membership", "alert"):
            with pytest.raises(ValueError, match="activity"):
                Trace().record("t", "d", kind, 0.0, 1.0)

    def test_records_are_the_activity_spans(self):
        t = Trace()
        t.bind_device("d", 0)
        span = t.begin_phase("map", 0, 0, 0.0)
        t.record("k", "d", "compute", 0.0, 1.0, nbytes=4, flops=8)
        t.record_recv("wait", "d", 1.0, 2.0)
        t.end_phase(span, 2.0)
        t.record_recovery("retry", 0, 2.0, 3.0)
        t.record_membership("join", 3.0, 3.0)
        t.record("h", "d", "h2d", 2.0, 4.0, nbytes=16)
        assert [(r.name, r.category) for r in t.records] == [
            ("k", "compute"), ("h", "h2d"),
        ]
        assert t.records[0].parent_id == span.span_id
        assert t.records[0].attrs == {"nbytes": 4, "flops": 8}
        assert t.devices() == ["d"]
        assert t.makespan == 4.0


class TestBusyTime:
    def test_disjoint_intervals_sum(self):
        t = make_trace([("a", "gpu", "compute", 0, 1), ("b", "gpu", "compute", 2, 3)])
        assert t.busy_time("gpu") == pytest.approx(2.0)

    def test_overlapping_intervals_merge(self):
        t = make_trace([("a", "gpu", "compute", 0, 2), ("b", "gpu", "h2d", 1, 3)])
        assert t.busy_time("gpu") == pytest.approx(3.0)

    def test_nested_intervals_merge(self):
        t = make_trace([("a", "gpu", "compute", 0, 10), ("b", "gpu", "h2d", 2, 3)])
        assert t.busy_time("gpu") == pytest.approx(10.0)

    def test_utilization_bounded(self):
        t = make_trace([
            ("a", "gpu", "compute", 0, 5),
            ("b", "gpu", "h2d", 0, 5),
            ("c", "cpu", "compute", 0, 1),
        ])
        assert t.utilization("gpu") == pytest.approx(1.0)
        assert t.utilization("cpu") == pytest.approx(0.2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 100), st.floats(0.01, 10)), min_size=1, max_size=20,
    ))
    def test_union_never_exceeds_sum_or_span(self, raw):
        trace = Trace()
        for i, (start, dur) in enumerate(raw):
            trace.record(f"t{i}", "dev", "compute", start, start + dur)
        busy = trace.busy_time("dev")
        assert busy <= sum(d for _, d in raw) + 1e-9
        assert busy <= trace.makespan + 1e-9
        assert trace.utilization("dev") <= 1.0 + 1e-12


class TestQueries:
    def test_makespan_empty(self):
        assert Trace().makespan == 0.0

    def test_filter_by_device_and_kind(self):
        t = make_trace([
            ("a", "gpu", "compute", 0, 1),
            ("b", "gpu", "h2d", 1, 2),
            ("c", "cpu", "compute", 0, 2),
        ])
        assert len(t.filter(device="gpu")) == 2
        assert len(t.filter(device="gpu", kind="compute")) == 1
        assert len(t.filter(kind="compute")) == 2

    def test_totals(self):
        t = Trace()
        t.record("a", "gpu", "compute", 0, 1, nbytes=10, flops=100)
        t.record("b", "cpu", "compute", 0, 1, nbytes=20, flops=50)
        assert t.total_flops() == 150
        assert t.total_flops("gpu") == 100
        assert t.total_bytes("cpu") == 20

    def test_devices_in_first_seen_order(self):
        t = make_trace([
            ("a", "gpu0", "compute", 0, 1),
            ("b", "cpu", "compute", 0, 1),
            ("c", "gpu0", "compute", 1, 2),
        ])
        assert t.devices() == ["gpu0", "cpu"]

    def test_summary_keys(self):
        t = make_trace([("a", "gpu", "compute", 0, 1)])
        summary = t.summary()
        assert set(summary["gpu"]) == {"busy", "flops", "bytes", "utilization"}

    def test_gantt_renders(self):
        t = make_trace([("a", "gpu", "compute", 0, 1), ("b", "cpu", "h2d", 0, 0.5)])
        art = t.gantt(width=40)
        assert "gpu" in art and "cpu" in art

    def test_gantt_empty(self):
        assert "empty" in Trace().gantt()

    def test_gantt_covers_all_known_kinds(self):
        # shuffle/reduce/overhead used to render as blanks (glyph map only
        # covered compute/h2d/d2h/net)
        t = make_trace([
            ("a", "dev", "shuffle", 0.0, 0.2),
            ("b", "dev", "reduce", 0.2, 0.4),
            ("c", "dev", "overhead", 0.4, 0.6),
            ("d", "dev", "net", 0.6, 0.8),
        ])
        row = t.gantt(width=50).splitlines()[0]
        for ch in ("x", "+", ".", "~"):
            assert ch in row

    def test_gantt_unknown_kind_gets_own_glyph(self):
        # DAG-introduced kinds render with their first letter, not a
        # silent "*" (that fallback is reserved for unnameable kinds).
        t = make_trace([("a", "dev", "mystery-kind", 0.0, 1.0)])
        out = t.gantt(width=30)
        assert "m" in out
        assert "*" not in out

    def test_gantt_unnameable_kind_falls_back_to_star(self):
        t = make_trace([("a", "dev", "###", 0.0, 1.0)])
        assert "*" in t.gantt(width=30)


class TestExport:
    def test_records_json_roundtrip(self):
        t = Trace()
        t.record("x", "cpu", "compute", 0.0, 2.0, nbytes=5, flops=7)
        t.record("y", "gpu", "h2d", 1.0, 3.0, nbytes=9)
        rebuilt = Trace(tracer=loads_profile(profile_jsonl(t)).tracer)
        assert rebuilt.records == t.records


def record_phase(t, phase, rank, iteration, start, end):
    t.end_phase(t.begin_phase(phase, rank, iteration, start), end)


class TestPhaseSpans:
    def _trace(self):
        t = Trace()
        record_phase(t, "setup", 0, -1, 0.0, 0.5)
        record_phase(t, "map", 0, 0, 0.5, 2.0)
        record_phase(t, "reduce", 0, 0, 2.0, 2.5)
        record_phase(t, "map", 1, 0, 0.5, 1.5)
        record_phase(t, "map", 0, 1, 2.5, 3.5)
        return t

    def test_phase_spans_appended_in_order(self):
        t = self._trace()
        assert [s.name for s in t.tracer.find(category="phase")] == [
            "setup", "map", "reduce", "map", "map",
        ]

    def test_phases_filter_by_rank_and_iteration(self):
        t = self._trace()
        assert [
            (s.attrs["rank"], s.attrs["iteration"])
            for s in t.tracer.find(category="phase")
        ] == [(0, -1), (0, 0), (0, 0), (1, 0), (0, 1)]

    def test_phase_breakdown_groups_per_iteration(self):
        t = self._trace()
        breakdown = t.phase_breakdown(rank=0)
        assert breakdown[-1] == {"setup": 0.5}
        assert breakdown[0] == {"map": 1.5, "reduce": 0.5}
        assert breakdown[1] == {"map": 1.0}

    def test_phase_breakdown_accumulates_repeated_phase(self):
        t = Trace()
        record_phase(t, "map", 0, 0, 0.0, 1.0)
        record_phase(t, "map", 0, 0, 1.0, 1.25)
        assert t.phase_breakdown()[0] == {"map": 1.25}

    def test_reversed_span_rejected(self):
        t = Trace()
        with pytest.raises(ValueError):
            record_phase(t, "map", 0, 0, 2.0, 1.0)


class TestObservedRates:
    def test_observed_gflops_is_flops_over_busy(self):
        t = Trace()
        t.record("k", "n.gpu0", "compute", 0.0, 2.0, flops=4e9)
        assert t.observed_gflops("n.gpu0") == pytest.approx(2.0)

    def test_idle_device_observes_zero(self):
        t = Trace()
        assert t.observed_gflops("n.cpu") == 0.0

    def test_since_window_restricts_observation(self):
        t = Trace()
        t.record("slow", "n.gpu0", "compute", 0.0, 2.0, flops=2e9)  # 1 GF/s
        t.record("fast", "n.gpu0", "compute", 5.0, 6.0, flops=4e9)  # 4 GF/s
        assert t.observed_gflops("n.gpu0") == pytest.approx(2.0)
        assert t.observed_gflops("n.gpu0", since=5.0) == pytest.approx(4.0)

    def test_filter_since_keeps_later_records(self):
        t = Trace()
        t.record("a", "d", "compute", 0.0, 1.0)
        t.record("b", "d", "compute", 3.0, 4.0)
        assert [r.name for r in t.filter(device="d", since=2.0)] == ["b"]

    def test_overhead_counts_toward_busy_not_flops(self):
        t = Trace()
        t.record("k", "n.cpu", "compute", 0.0, 1.0, flops=1e9)
        t.record("d", "n.cpu", "overhead", 1.0, 2.0)
        assert t.observed_gflops("n.cpu") == pytest.approx(0.5)
