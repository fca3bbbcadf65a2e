"""Golden-file + self-consistency tests over a real C-means run's profile.

One small deterministic C-means job is executed once per module; the
tests check the acceptance invariants the observability layer promises:

* per-rank phase spans tile the makespan within 1e-6 s;
* the span/metric self-consistency gate (:func:`repro.obs.check_profile`)
  passes;
* the metrics registry agrees with the trace it was derived from;
* the phase structure (rank 0's ordered iteration/phase sequence) matches
  the golden file — the runtime cannot silently drop or reorder phases;
* the Chrome export is schema-valid and round-trips.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import obs
from repro.apps.cmeans import CMeansApp
from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime

from tests.helpers import rank_phases

GOLDEN = pathlib.Path(__file__).parent / "golden_cmeans_phases.json"


@pytest.fixture(scope="module")
def result():
    pts, _, _ = gaussian_mixture(600, 8, 4, seed=3)
    app = CMeansApp(pts, 4, seed=3, max_iterations=3, epsilon=1e-12)
    return PRSRuntime(delta_cluster(2), JobConfig()).run(app)


class TestAcceptance:
    def test_phase_spans_tile_the_makespan(self, result):
        gap = obs.phase_makespan_gap(result.trace, result.makespan)
        assert gap <= 1e-6

    def test_profile_self_consistency_gate_passes(self, result):
        assert obs.check_profile(result.trace, result.makespan) == []

    def test_every_rank_tiles_from_zero(self, result):
        # Phases run back-to-back per rank, so each rank's span sum is
        # its finish time; no rank outlives the makespan.
        for rank in range(2):
            spans = rank_phases(result.trace, rank=rank)
            assert spans, f"rank {rank} recorded no phases"
            total = sum(s.duration for s in spans)
            finish = max(s.end for s in spans)
            assert total == pytest.approx(finish, abs=1e-9)
            assert finish <= result.makespan + 1e-9


class TestMetricsAgreeWithTrace:
    def test_busy_union_counter_matches_busy_time(self, result):
        counter = result.trace.metrics.counter(obs.DEVICE_BUSY_UNION_SECONDS)
        for device in result.trace.devices():
            assert counter.value(device=device) == pytest.approx(
                result.trace.busy_time(device), rel=1e-12
            )

    def test_flops_counter_matches_trace_totals(self, result):
        counter = result.trace.metrics.counter(obs.DEVICE_FLOPS)
        assert counter.total() == pytest.approx(
            result.trace.total_flops(), rel=1e-12
        )

    def test_phase_seconds_counter_matches_breakdown(self, result):
        counter = result.trace.metrics.counter(obs.PHASE_SECONDS)
        totals = result.phase_totals(rank=0)
        for phase, seconds in totals.items():
            assert counter.value(phase=phase, rank="0") == pytest.approx(
                seconds, rel=1e-12
            )

    def test_job_gauges_set(self, result):
        makespan = result.trace.metrics.gauge(obs.JOB_MAKESPAN_SECONDS)
        iterations = result.trace.metrics.gauge(obs.JOB_ITERATIONS)
        assert makespan.value() == pytest.approx(result.makespan)
        assert iterations.value() == result.iterations

    def test_policy_dispatch_counted(self, result):
        blocks = result.trace.metrics.counter(obs.POLICY_BLOCKS)
        assert blocks.total() > 0


class TestGoldenPhaseStructure:
    def test_rank0_phase_sequence_matches_golden(self, result):
        observed = [
            {"iteration": s.attrs["iteration"], "phase": s.name}
            for s in sorted(
                rank_phases(result.trace, rank=0),
                key=lambda s: (s.start, s.attrs["iteration"]),
            )
        ]
        golden = json.loads(GOLDEN.read_text())
        assert observed == golden, (
            "rank 0 phase structure drifted from the golden file; if the "
            "pipeline deliberately changed, regenerate "
            "tests/obs/golden_cmeans_phases.json"
        )


class TestChromeExport:
    def test_schema_and_round_trip(self, result):
        payload = json.loads(result.trace.tracer.to_chrome_json())
        events = payload["traceEvents"]
        assert any(
            e["ph"] == "M" and e["name"] == "process_name" for e in events
        )
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for ev in complete:
            assert set(ev) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert ev["dur"] >= 0.0

        from repro.obs import SpanTracer

        rebuilt = SpanTracer.from_chrome(payload)
        assert len(rebuilt) == len(result.trace.tracer)
        assert rebuilt.check_consistency(tol=1e-6) == []

    def test_hierarchy_present_in_export(self, result):
        tracer = result.trace.tracer
        cats = {s.category for s in tracer.spans}
        assert {"job", "iteration", "phase"} <= cats
        # at least one device block hangs under a phase span
        phase_ids = {s.span_id for s in tracer.find(category="phase")}
        assert any(
            s.parent_id in phase_ids
            for s in tracer.spans
            if s.category in ("compute", "h2d", "d2h")
        )
