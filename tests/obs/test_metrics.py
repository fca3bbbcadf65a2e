"""Tests for the metrics registry: types, bucketing, exposition."""

from __future__ import annotations

import math
import random
import re

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    IntervalUnion,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        c = Counter("x_total")
        c.inc(2.0, device="cpu")
        c.inc(3.0, device="cpu")
        c.inc(5.0, device="gpu")
        assert c.value(device="cpu") == 5.0
        assert c.value(device="gpu") == 5.0
        assert c.value(device="mic") == 0.0
        assert c.total() == 10.0

    def test_label_order_does_not_matter(self):
        c = Counter("x_total")
        c.inc(1.0, a="1", b="2")
        c.inc(1.0, b="2", a="1")
        assert c.value(a="1", b="2") == 2.0
        assert len(c) == 1

    def test_negative_increment_rejected(self):
        c = Counter("x_total")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1.0)

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad name!")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(4.0, node="n0")
        g.inc(2.0, node="n0")
        g.inc(-5.0, node="n0")
        assert g.value(node="n0") == 1.0
        g.inc(-1.0)  # unlabeled series is independent
        assert g.value() == -1.0


class TestHistogramBucketing:
    def test_boundary_observation_counts_into_that_bucket(self):
        # "le" semantics: an observation equal to an upper bound belongs
        # to that bound's bucket, not the next one.
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(4.0)
        series = h._samples[()]
        assert series.bucket_counts == [1, 1, 1, 0]

    def test_below_first_and_above_last_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(0.0)      # below every finite bound -> first bucket
        h.observe(-3.0)     # negative still lands in the first bucket
        h.observe(100.0)    # beyond the last finite bound -> +Inf bucket
        series = h._samples[()]
        assert series.bucket_counts == [2, 0, 1]
        assert series.count == 3
        assert series.sum == pytest.approx(97.0)

    def test_bounds_sorted_and_deduplicated_with_inf_appended(self):
        h = Histogram("h", buckets=(4.0, 1.0, 4.0, 2.0))
        assert h.bounds == (1.0, 2.0, 4.0, math.inf)

    def test_needs_a_finite_bound(self):
        with pytest.raises(ValueError, match="finite bucket"):
            Histogram("h", buckets=(math.inf,))

    def test_count_and_total_per_label_set(self):
        h = Histogram("h", buckets=COUNT_BUCKETS)
        for depth in (0, 1, 1, 7):
            h.observe(depth, policy="dynamic")
        assert h.count(policy="dynamic") == 4
        assert h.total(policy="dynamic") == 9.0
        assert h.count(policy="static") == 0


class TestHistogramQuantiles:
    def test_interpolated_median(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        # target = 2 observations; cumulative hits 2 inside (1, 2]:
        # lower 1.0 + (2-1)/1 * (2.0-1.0) = 2.0
        assert h.quantile(0.5) == pytest.approx(2.0)

    def test_inf_bucket_clamps_to_highest_finite_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.99) == 2.0

    def test_empty_series_is_nan(self):
        h = Histogram("h", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5))

    def test_out_of_range_q_rejected(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="outside"):
            h.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert len(reg) == 3

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("a_total")

    def test_iteration_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        assert [m.name for m in reg] == ["a_total", "b_total"]


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", help="jobs run").inc(3, node="n0")
        reg.gauge("p").set(0.25)
        text = reg.render()
        assert "# HELP jobs_total jobs run\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert 'jobs_total{node="n0"} 3\n' in text
        assert "# TYPE p gauge\n" in text
        assert "p 0.25\n" in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc(1, label='a"b\\c\nd')
        line = [l for l in reg.render().splitlines() if l.startswith("x_total")]
        assert line == ['x_total{label="a\\"b\\\\c\\nd"} 1']

    def test_histogram_exposition_is_cumulative_and_complete(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 5.0):
            h.observe(v, op="map")
        lines = reg.render().splitlines()
        assert '# TYPE lat histogram' in lines
        assert 'lat_bucket{op="map",le="1"} 1' in lines
        assert 'lat_bucket{op="map",le="2"} 2' in lines
        assert 'lat_bucket{op="map",le="+Inf"} 3' in lines
        assert 'lat_sum{op="map"} 7' in lines
        assert 'lat_count{op="map"} 3' in lines

    def test_every_sample_line_is_well_formed(self):
        # promtool-style sanity: every non-comment line is
        # name{labels}? value
        reg = MetricsRegistry()
        reg.counter("a_total").inc(1.5, x="1")
        reg.gauge("b").set(-2.0)
        reg.histogram("c", buckets=(0.1,)).observe(0.05)
        pattern = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$'
        )
        for line in reg.render().splitlines():
            if line.startswith("#"):
                continue
            assert pattern.match(line), line

    def test_golden_text_with_sorted_label_sets(self):
        # Byte-for-byte golden: label sets render sorted regardless of
        # the order they were first touched, so the exposition of a
        # deterministic run is stable enough to diff / hash in CI.
        reg = MetricsRegistry()
        jobs = reg.counter("jobs_total", help="jobs run")
        jobs.inc(3, node="n1")  # n1 touched before n0 on purpose
        jobs.inc(1, node="n0")
        reg.gauge("depth", help="queue depth").set(4, policy="dynamic")
        assert reg.render() == (
            "# HELP depth queue depth\n"
            "# TYPE depth gauge\n"
            'depth{policy="dynamic"} 4\n'
            "# HELP jobs_total jobs run\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{node="n0"} 1\n'
            'jobs_total{node="n1"} 3\n'
        )

    def test_exposition_byte_stable_across_touch_order(self):
        def build(order):
            reg = MetricsRegistry()
            counter = reg.counter("a_total")
            gauge = reg.gauge("g")
            hist = reg.histogram("h", buckets=(1.0, 2.0))
            for node in order:
                counter.inc(1, node=node)
                gauge.set(float(len(node)), node=node)
                hist.observe(1.5, node=node)
            return reg.render()

        orders = [["n1", "n0", "n2"], ["n2", "n1", "n0"], ["n0", "n2", "n1"]]
        rendered = {build(order) for order in orders}
        assert len(rendered) == 1

    def test_to_dict_round_trips_through_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a_total").inc(2, d="cpu")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        payload = json.loads(json.dumps(reg.to_dict()))
        assert payload["a_total"] == [{"labels": {"d": "cpu"}, "value": 2.0}]
        assert payload["h"][0]["count"] == 1
        assert payload["h"][0]["buckets"] == {"1": 1, "+Inf": 0}


class TestIntervalUnion:
    def test_disjoint_then_overlapping(self):
        u = IntervalUnion()
        assert u.add(0.0, 1.0) == 1.0
        assert u.add(2.0, 3.0) == 1.0
        # overlaps both: only the gap (1, 2) is newly covered
        assert u.add(0.5, 2.5) == pytest.approx(1.0)
        assert u.total == pytest.approx(3.0)
        assert u.intervals() == [(0.0, 3.0)]

    def test_touching_intervals_merge(self):
        u = IntervalUnion()
        u.add(0.0, 1.0)
        assert u.add(1.0, 2.0) == pytest.approx(1.0)
        assert len(u) == 1

    def test_contained_interval_adds_nothing(self):
        u = IntervalUnion()
        u.add(0.0, 10.0)
        assert u.add(2.0, 3.0) == 0.0
        assert u.total == 10.0

    def test_zero_length_is_noop(self):
        u = IntervalUnion()
        assert u.add(5.0, 5.0) == 0.0
        assert len(u) == 0

    def test_reversed_interval_rejected(self):
        u = IntervalUnion()
        with pytest.raises(ValueError, match="precedes"):
            u.add(2.0, 1.0)

    def test_zero_length_inside_existing_coverage(self):
        u = IntervalUnion()
        u.add(0.0, 4.0)
        assert u.add(2.0, 2.0) == 0.0
        assert u.add(4.0, 4.0) == 0.0  # exactly at the right edge
        assert u.intervals() == [(0.0, 4.0)]

    def test_abutting_chain_collapses_to_one_interval(self):
        u = IntervalUnion()
        for i in range(10):
            assert u.add(float(i), float(i + 1)) == pytest.approx(1.0)
        assert len(u) == 1
        assert u.intervals() == [(0.0, 10.0)]
        assert u.total == pytest.approx(10.0)

    def test_abutting_on_both_sides_bridges_neighbours(self):
        u = IntervalUnion()
        u.add(0.0, 1.0)
        u.add(2.0, 3.0)
        # touches both neighbours exactly: one merged interval, only
        # the gap is newly covered
        assert u.add(1.0, 2.0) == pytest.approx(1.0)
        assert u.intervals() == [(0.0, 3.0)]

    def test_overlapping_merge_reduces_interval_count(self):
        u = IntervalUnion()
        u.add(0.0, 1.0)
        u.add(2.0, 3.0)
        u.add(4.0, 5.0)
        assert len(u) == 3
        # spans the interior intervals entirely
        assert u.add(0.5, 4.5) == pytest.approx(2.0)
        assert len(u) == 1
        assert u.total == pytest.approx(5.0)

    def test_matches_brute_force_union(self):
        rng = random.Random(42)
        u = IntervalUnion()
        intervals: list[tuple[float, float]] = []
        for _ in range(200):
            start = rng.uniform(0.0, 100.0)
            end = start + rng.uniform(0.0, 10.0)
            u.add(start, end)
            intervals.append((start, end))
        # brute-force merge
        merged_total = 0.0
        cur_s, cur_e = None, 0.0
        for s, e in sorted(intervals):
            if cur_s is None:
                cur_s, cur_e = s, e
            elif s <= cur_e:
                cur_e = max(cur_e, e)
            else:
                merged_total += cur_e - cur_s
                cur_s, cur_e = s, e
        if cur_s is not None:
            merged_total += cur_e - cur_s
        assert u.total == pytest.approx(merged_total)
        # internal invariant: intervals stay sorted and disjoint
        ivs = u.intervals()
        assert all(s < e for s, e in ivs)
        assert all(ivs[i][1] < ivs[i + 1][0] for i in range(len(ivs) - 1))
