"""Tests for the post-run trace-analytics layer (`repro.obs.analyze`).

Critical-path correctness is pinned on a hand-built synthetic span tree
with a known longest chain; the audit/drift and end-to-end invariants
run against a real (small) simulated C-means job.
"""

from __future__ import annotations

import pytest

from repro.obs import SpanTracer
from repro.obs.analyze import (
    DecisionLog,
    analyze_imbalance,
    analyze_tracer,
    audited_decisions,
    critical_path,
    device_loads,
    find_stragglers,
    model_drift,
    observed_splits,
)
from repro.obs.analyze.baseline import (
    SCHEMA_VERSION,
    compare_baselines,
    load_baseline,
)


def build_synthetic_tree() -> SpanTracer:
    """One rank, two iterations, known critical chain.

    Timeline (seconds):

    - job [0, 10]
    - iteration 0 [0, 6]: map phase [0, 5] with cpu block [0, 2] and
      gpu block [1, 4.5]; reduce phase [5, 6] (childless)
    - iteration 1 [6, 10]: map phase [6, 9.5] with gpu block [6, 9];
      phase tail [9, 9.5] is slack; iteration tail [9.5, 10] is slack

    Walking back from t=10: iteration-1 slack [9.5, 10], map-phase slack
    [9, 9.5], gpu block [6, 9] (work), then iteration 0: reduce [5, 6]
    (work), map slack [4.5, 5], gpu block [1, 4.5] (work).  The cpu
    block *completes* at 2.0, inside the gpu block's run, so its [0, 1]
    stretch is charged as phase slack — attribution follows the
    last-finisher's completion, not mere activity.
    """
    t = SpanTracer()
    job = t.begin("job", "rank0", 0.0, category="job")
    it0 = t.begin("iteration 0", "rank0", 0.0, category="iteration",
                  attrs={"iteration": 0})
    ph_map0 = t.begin("map", "rank0", 0.0, category="phase",
                      attrs={"rank": 0, "iteration": 0})
    t.record("map[0:4]", "n0.cpu", 0.0, 2.0, category="compute",
             parent_id=ph_map0.span_id, attrs={"flops": 200.0})
    t.record("map[4:8]", "n0.gpu0", 1.0, 4.5, category="compute",
             parent_id=ph_map0.span_id, attrs={"flops": 800.0})
    t.end(ph_map0, 5.0)
    ph_red0 = t.begin("reduce", "rank0", 5.0, category="phase",
                      attrs={"rank": 0, "iteration": 0})
    t.end(ph_red0, 6.0)
    t.end(it0, 6.0)
    it1 = t.begin("iteration 1", "rank0", 6.0, category="iteration",
                  attrs={"iteration": 1})
    ph_map1 = t.begin("map", "rank0", 6.0, category="phase",
                      attrs={"rank": 1, "iteration": 1})
    t.record("map[0:8]", "n0.gpu0", 6.0, 9.0, category="compute",
             parent_id=ph_map1.span_id, attrs={"flops": 1000.0})
    t.end(ph_map1, 9.5)
    t.end(it1, 10.0)
    t.end(job, 10.0)
    return t


class TestCriticalPathSynthetic:
    def test_tiles_makespan_exactly(self):
        cp = critical_path(build_synthetic_tree())
        assert cp.makespan == 10.0
        assert cp.tiling_gap <= 1e-9
        # chronological, contiguous
        assert cp.segments[0].start == 0.0
        assert cp.segments[-1].end == 10.0
        for a, b in zip(cp.segments, cp.segments[1:]):
            assert a.end == pytest.approx(b.start)

    def test_known_chain(self):
        cp = critical_path(build_synthetic_tree())
        names = [(s.name, s.start, s.end, s.is_work) for s in cp.segments]
        assert names == [
            ("map", 0.0, 1.0, False),
            ("map[4:8]", 1.0, 4.5, True),
            ("map", 4.5, 5.0, False),
            ("reduce", 5.0, 6.0, True),
            ("map[0:8]", 6.0, 9.0, True),
            ("map", 9.0, 9.5, False),
            ("iteration 1", 9.5, 10.0, False),
        ]

    def test_work_slack_split(self):
        cp = critical_path(build_synthetic_tree())
        assert cp.work == pytest.approx(7.5)
        assert cp.slack == pytest.approx(2.5)

    def test_by_resource_attribution(self):
        shares = critical_path(build_synthetic_tree()).by_resource()
        assert shares["n0.gpu0"] == pytest.approx(6.5)
        assert "n0.cpu" not in shares
        assert shares["rank0"] == pytest.approx(3.5)

    def test_zero_length_child_cannot_stall_the_walk(self):
        t = SpanTracer()
        job = t.begin("job", "rank0", 0.0, category="job")
        ph = t.begin("empty", "rank0", 2.0, category="phase",
                     attrs={"rank": 0, "iteration": 0})
        t.end(ph, 2.0)  # zero-length phase ending exactly at the cursor
        t.end(job, 2.0)
        cp = critical_path(t)
        assert cp.tiling_gap <= 1e-9
        assert cp.makespan == 2.0

    def test_empty_tracer(self):
        cp = critical_path(SpanTracer())
        assert cp.makespan == 0.0
        assert cp.segments == ()


class TestImbalanceSynthetic:
    def test_device_loads_and_factor(self):
        report = analyze_imbalance(build_synthetic_tree())
        loads = {d.device: d for d in report.devices}
        assert loads["n0.gpu0"].busy_s == pytest.approx(6.5)
        assert loads["n0.cpu"].busy_s == pytest.approx(2.0)
        # factor = max / mean = 6.5 / 4.25
        assert report.imbalance_factor == pytest.approx(6.5 / 4.25)

    def test_stragglers_scored_per_device(self):
        stragglers = find_stragglers(build_synthetic_tree(), top=2)
        assert stragglers[0].device == "n0.gpu0"
        assert stragglers[0].duration == pytest.approx(3.5)

    def test_envelope_spans_not_counted_as_busy(self):
        loads = device_loads(build_synthetic_tree())
        assert all(".cpu" in d.device or ".gpu" in d.device for d in loads)


class TestAuditSynthetic:
    def test_observed_splits_from_spans(self):
        obs_splits = observed_splits(build_synthetic_tree())
        assert obs_splits[("n0", 0)] == (200.0, 800.0)
        assert obs_splits[("n0", 1)] == (0.0, 1000.0)

    def test_drift_pairs_governing_decision(self):
        audit = DecisionLog()
        audit.record("static-split", "n0", 0.0, -1, outputs={"p": 0.25})
        audit.record("adaptive-refit", "n0", 6.0, 0, outputs={"p": 0.1})
        points = model_drift(build_synthetic_tree(), audit)
        by_iter = {p.iteration: p for p in points}
        # iteration 0 governed by the static split (decided at -1)
        assert by_iter[0].predicted_p == 0.25
        assert by_iter[0].observed_p == pytest.approx(0.2)
        assert by_iter[0].drift == pytest.approx(-0.05)
        # iteration 1 governed by the refit decided in iteration 0
        assert by_iter[1].predicted_p == 0.1
        assert by_iter[1].observed_p == 0.0
        assert by_iter[1].decision_kind == "adaptive-refit"

    def test_audited_decisions_attach_observed_p(self):
        audit = DecisionLog()
        audit.record("static-split", "n0", 0.0, -1, outputs={"p": 0.25})
        audit.record("block-plan", "n0", 0.0, -1, outputs={"n_blocks": 8})
        entries = audited_decisions(build_synthetic_tree(), audit)
        assert entries[0]["observed_p"] == pytest.approx(0.2)
        assert entries[0]["drift"] == pytest.approx(-0.05)
        assert "observed_p" not in entries[1]  # not a split kind

    def test_log_round_trip(self):
        audit = DecisionLog()
        audit.record("static-split", "n0", 0.0, -1,
                     inputs={"a": 1.0}, outputs={"p": 0.5})
        (record,) = audit.records
        assert record.to_dict() == {
            "kind": "static-split", "node": "n0", "time": 0.0,
            "iteration": -1, "inputs": {"a": 1.0}, "outputs": {"p": 0.5},
        }


@pytest.fixture(scope="module")
def cmeans_result():
    from repro.apps.cmeans import CMeansApp
    from repro.cli import _cluster_for
    from repro.data.synth import gaussian_mixture
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    pts, _, _ = gaussian_mixture(800, 8, 3, seed=1)
    app = CMeansApp(pts, 3, seed=1, max_iterations=3)
    return PRSRuntime(
        _cluster_for("delta", 2), JobConfig(scheduling="adaptive-feedback")
    ).run(app)


class TestRealRun:
    def test_tiling_within_acceptance_bound(self, cmeans_result):
        analysis = cmeans_result.analyze()
        assert analysis.critical_path.tiling_gap <= 1e-6
        assert analysis.check() == []

    def test_audit_has_static_split_and_refits(self, cmeans_result):
        audit = cmeans_result.trace.audit
        statics = audit.filter(kind="static-split")
        refits = audit.filter(kind="adaptive-refit")
        assert len(statics) == 2  # one per co-processing node
        assert len(refits) == 2 * cmeans_result.iterations
        for rec in statics + refits:
            assert "p" in rec.outputs
            assert "op" in rec.outputs
            assert rec.inputs  # Eq (1)-(8) inputs recorded

    def test_every_split_decision_pairs_predicted_and_observed(
        self, cmeans_result
    ):
        analysis = cmeans_result.analyze()
        split_entries = [
            e for e in analysis.decisions
            if e["kind"] in ("static-split", "adaptive-refit")
        ]
        assert split_entries
        governed = [e for e in split_entries if e["observed_p"] is not None]
        # Every decision except refits after the final pass is governed.
        assert len(governed) >= len(split_entries) - 2
        for entry in governed:
            assert 0.0 <= entry["observed_p"] <= 1.0
            assert entry["drift"] == pytest.approx(
                entry["observed_p"] - entry["outputs"]["p"]
            )

    def test_drift_small_on_model_faithful_simulator(self, cmeans_result):
        analysis = cmeans_result.analyze()
        assert analysis.drift
        assert analysis.max_abs_drift <= 0.05

    def test_steal_summary_present_with_metrics(self, cmeans_result):
        analysis = cmeans_result.analyze()
        steals = analysis.imbalance.steals
        assert "adaptive-feedback" in steals
        assert steals["adaptive-feedback"]["dispatches"] > 0
        assert 0.0 <= steals["adaptive-feedback"]["efficiency"] <= 1.0

    def test_analysis_json_ready(self, cmeans_result):
        import json

        payload = cmeans_result.analyze().to_dict()
        text = json.dumps(payload)
        assert "critical_path" in payload
        assert "model_drift" in payload
        assert text  # serializable without custom encoders

    def test_saved_profile_round_trip_analyzes(self, cmeans_result):
        import json

        tracer = SpanTracer.from_chrome(
            json.loads(cmeans_result.trace.tracer.to_chrome_json())
        )
        analysis = analyze_tracer(tracer)
        assert analysis.critical_path.tiling_gap <= 1e-6
        assert analysis.imbalance.devices  # device loads survive the trip


class TestBaselineCompare:
    @staticmethod
    def _payload(makespan=1.0, gflops=10.0):
        return {
            "schema_version": SCHEMA_VERSION,
            "benchmark": "trace_analytics",
            "workloads": {
                "w": {
                    "spec": {"name": "w"},
                    "metrics": {
                        "makespan_s": makespan,
                        "critical_path_work_s": makespan * 0.9,
                        "critical_path_slack_s": makespan * 0.1,
                        "gflops": gflops,
                        "max_abs_drift": 0.01,
                        "phase_totals_s": {"map": makespan * 0.8},
                    },
                }
            },
        }

    def test_identical_payloads_pass(self):
        outcome = compare_baselines(
            self._payload(), self._payload(), tolerance=0.01
        )
        assert outcome.ok
        assert outcome.checked > 0

    def test_slowdown_fails(self):
        outcome = compare_baselines(
            self._payload(makespan=1.0), self._payload(makespan=2.0),
            tolerance=0.25,
        )
        assert not outcome.ok
        metrics = {r.metric for r in outcome.regressions}
        assert "makespan_s" in metrics
        assert "phase_totals_s.map" in metrics

    def test_throughput_drop_fails_but_gain_passes(self):
        drop = compare_baselines(
            self._payload(gflops=10.0), self._payload(gflops=5.0),
            tolerance=0.10,
        )
        assert any(r.metric == "gflops" for r in drop.regressions)
        gain = compare_baselines(
            self._payload(gflops=10.0), self._payload(gflops=20.0),
            tolerance=0.10,
        )
        assert gain.ok

    def test_missing_workload_reported_as_skipped(self):
        current = self._payload()
        current["workloads"] = {}
        outcome = compare_baselines(self._payload(), current)
        assert outcome.skipped == ("w",)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        import json

        bad = self._payload()
        bad["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(str(path))

    def test_committed_baseline_loads_and_self_compares(self):
        import pathlib

        committed = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "BENCH_trace_analytics.json"
        )
        payload = load_baseline(str(committed))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert compare_baselines(payload, payload, tolerance=0.01).ok
