"""Tests for the declarative alert-rule engine (repro.obs.rules).

These drive :func:`evaluate_rules` against hand-built
:class:`~repro.obs.timeseries.SeriesBank` contents so every firing /
resolution / for_s edge is pinned without running the simulator.
"""

import pytest

from repro.obs.metrics import ALERTS_TOTAL, MetricsRegistry
from repro.obs.rules import (
    ALERT_CATEGORY,
    ALERTS_TRACK,
    AlertEvent,
    Rule,
    alerts_from_tracer,
    builtin_rules,
    evaluate_rules,
    parse_expr,
    record_alerts,
)
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import SeriesBank


def bank_with(name, points, **labels):
    """A one-series bank sampled at the given (t, v) points."""
    bank = SeriesBank()
    series = bank.get_or_create(name, tuple(sorted(labels.items())))
    for t, v in points:
        series.append(t, v)
    return bank


class TestParseExpr:
    def test_bare_metric(self):
        assert parse_expr("mean(prs_x)") == ("mean", "prs_x", {})

    def test_labels_and_whitespace(self):
        func, metric, labels = parse_expr(
            ' p99( prs_q{policy=dynamic, node="n0"} ) '
        )
        assert func == "p99"
        assert metric == "prs_q"
        assert labels == {"policy": "dynamic", "node": "n0"}

    @pytest.mark.parametrize(
        "expr",
        [
            "mean prs_x",  # no parens
            "mean()",  # no metric
            "frobnicate(prs_x)",  # unknown function
            "mean(prs_x{policy})",  # label matcher without '='
            "mean(prs_x",  # unbalanced
        ],
    )
    def test_malformed_rejected(self, expr):
        with pytest.raises(ValueError):
            parse_expr(expr)


class TestRuleValidation:
    def test_bad_expr_fails_at_construction(self):
        with pytest.raises(ValueError):
            Rule(name="r", expr="nope(", threshold=1.0)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            Rule(name="r", expr="mean(prs_x)", threshold=1.0, op="==")

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Rule(name="r", expr="mean(prs_x)", threshold=1.0, window=-1.0)

    def test_negative_for_s_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Rule(name="r", expr="mean(prs_x)", threshold=1.0, for_s=-0.1)


class TestEvaluateRules:
    def test_simple_threshold_fires_and_resolves(self):
        bank = bank_with(
            "prs_x",
            [(0.0, 0.0), (1.0, 5.0), (2.0, 6.0), (3.0, 0.0), (4.0, 0.0)],
        )
        rule = Rule(name="hot", expr="value(prs_x)", threshold=4.0)
        events = evaluate_rules(bank, [rule])
        assert len(events) == 1
        e = events[0]
        assert (e.start, e.end, e.resolved) == (1.0, 3.0, True)
        assert e.peak == 6.0
        assert e.severity == "warning"

    def test_unresolved_run_ends_at_last_true_sample(self):
        bank = bank_with("prs_x", [(0.0, 0.0), (1.0, 5.0), (2.0, 5.0)])
        rule = Rule(name="hot", expr="value(prs_x)", threshold=4.0)
        (e,) = evaluate_rules(bank, [rule])
        assert (e.start, e.end, e.resolved) == (1.0, 2.0, False)

    def test_for_s_suppresses_short_blips(self):
        # Condition holds at exactly one sample: held duration is 0,
        # which is < for_s, so no alert.
        bank = bank_with(
            "prs_x", [(0.0, 0.0), (1.0, 9.0), (2.0, 0.0), (3.0, 0.0)]
        )
        rule = Rule(
            name="hot", expr="value(prs_x)", threshold=4.0, for_s=0.5
        )
        assert evaluate_rules(bank, [rule]) == []

    def test_for_s_met_by_sustained_run(self):
        bank = bank_with(
            "prs_x",
            [(0.0, 0.0), (1.0, 9.0), (2.0, 9.0), (3.0, 9.0), (4.0, 0.0)],
        )
        rule = Rule(
            name="hot", expr="value(prs_x)", threshold=4.0, for_s=2.0
        )
        (e,) = evaluate_rules(bank, [rule])
        assert (e.start, e.end, e.resolved) == (1.0, 4.0, True)

    def test_lower_bound_rule_tracks_minimum_peak(self):
        # With op="<" the "peak" is the most extreme (smallest) value.
        bank = bank_with(
            "prs_x", [(0.0, 10.0), (1.0, 2.0), (2.0, 1.0), (3.0, 10.0)]
        )
        rule = Rule(name="cold", expr="value(prs_x)", threshold=5.0, op="<")
        (e,) = evaluate_rules(bank, [rule])
        assert e.peak == 1.0

    def test_windowed_increase(self):
        # Counter climbs by 6 between t=1 and t=2; window=1 sees it.
        bank = bank_with(
            "prs_total", [(0.0, 0.0), (1.0, 1.0), (2.0, 7.0), (3.0, 7.0)]
        )
        rule = Rule(
            name="storm",
            expr="increase(prs_total)",
            threshold=5.0,
            window=1.0,
            op=">=",
        )
        (e,) = evaluate_rules(bank, [rule])
        assert e.start == 2.0
        assert e.peak == 6.0

    def test_label_subset_matching_fires_per_series(self):
        bank = SeriesBank()
        for dev, vals in (("gpu", 9.0), ("cpu", 9.0)):
            s = bank.get_or_create(
                "prs_x", (("device", dev), ("node", "n0"))
            )
            s.append(0.0, 0.0)
            s.append(1.0, vals)
        rule = Rule(
            name="hot", expr="value(prs_x{node=n0})", threshold=4.0
        )
        events = evaluate_rules(bank, [rule])
        # One event per matching series, deterministically ordered.
        assert [dict(e.labels)["device"] for e in events] == ["cpu", "gpu"]

    def test_label_mismatch_is_silent(self):
        bank = bank_with("prs_x", [(0.0, 9.0), (1.0, 9.0)], device="gpu")
        rule = Rule(
            name="hot", expr="value(prs_x{device=tpu})", threshold=4.0
        )
        assert evaluate_rules(bank, [rule]) == []

    def test_end_truncates_evaluation(self):
        bank = bank_with("prs_x", [(0.0, 0.0), (1.0, 9.0), (5.0, 9.0)])
        rule = Rule(name="hot", expr="value(prs_x)", threshold=4.0)
        (e,) = evaluate_rules(bank, [rule], end=2.0)
        assert e.end <= 2.0

    def test_default_rules_are_builtin(self):
        bank = bank_with("prs_unrelated", [(0.0, 1.0)])
        assert evaluate_rules(bank) == []  # healthy bank, builtin set

    def test_builtin_rules_parse_and_name_unique(self):
        rules = builtin_rules()
        names = [r.name for r in rules]
        assert len(names) == len(set(names))
        for rule in rules:
            parse_expr(rule.expr)  # must not raise


class TestRecordAlerts:
    def _event(self, **overrides):
        base = dict(
            rule="hot",
            severity="critical",
            labels=(("device", "gpu"),),
            start=1.0,
            end=2.0,
            resolved=True,
            peak=9.0,
            threshold=4.0,
            expr="value(prs_x)",
        )
        base.update(overrides)
        return AlertEvent(**base)

    def test_spans_and_counter(self):
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        record_alerts(tracer, metrics, [self._event()])
        (span,) = tracer.find(category=ALERT_CATEGORY)
        assert span.track == ALERTS_TRACK
        assert span.name == "hot"
        assert (span.start, span.end) == (1.0, 2.0)
        assert span.attrs["severity"] == "critical"
        counter = metrics.counter(ALERTS_TOTAL)
        assert counter.value(rule="hot", severity="critical") == 1.0

    def test_alert_spans_are_closed_and_consistent(self):
        tracer = SpanTracer()
        record_alerts(tracer, MetricsRegistry(), [self._event()])
        assert tracer.check_consistency() == []

    def test_round_trip_through_alerts_from_tracer(self):
        tracer = SpanTracer()
        events = [
            self._event(),
            self._event(rule="cold", severity="warning", start=0.5),
        ]
        record_alerts(tracer, MetricsRegistry(), events)
        recovered = alerts_from_tracer(tracer)
        assert [a["rule"] for a in recovered] == ["cold", "hot"]
        hot = recovered[1]
        assert hot["labels"] == {"device": "gpu"}
        assert hot["peak"] == 9.0
        assert hot["resolved"] is True
        assert hot["expr"] == "value(prs_x)"

    def test_event_to_dict_is_json_ready(self):
        d = self._event().to_dict()
        assert d["labels"] == {"device": "gpu"}
        assert d["rule"] == "hot"
        assert set(d) == {
            "rule", "severity", "labels", "start", "end",
            "resolved", "peak", "threshold", "expr",
        }
