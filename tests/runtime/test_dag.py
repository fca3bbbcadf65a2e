"""Tests for the task-DAG runtime: graph validation, the linear-pipeline
equivalence guarantee, the contiguous min-cut, and fault-plan determinism
of the two graph-driven policies."""

from __future__ import annotations

import pickle

import pytest

from repro.apps.cmeans import CMeansApp
from repro.apps.gmm import GMMApp
from repro.data.synth import gaussian_mixture
from repro.runtime.dag import (
    DataEdge,
    GraphValidationError,
    TaskGraph,
    TaskNode,
    contiguous_min_cut,
)
from repro.runtime.job import JobConfig
from repro.runtime.phases import ITERATION_PHASES
from repro.runtime.prs import PRSRuntime

from tests.helpers import CountdownApp, phase_rows


def graph_of(names, edges):
    g = TaskGraph()
    for name in names:
        g.add_node(TaskNode(name))
    for src, dst in edges:
        g.add_edge(src, dst)
    return g


class TestGraphValidation:
    def test_cycle_rejected(self):
        g = graph_of("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(GraphValidationError, match="cycle"):
            g.validate()

    def test_self_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="self"):
            DataEdge("a", "a")

    def test_dangling_edge_rejected(self):
        g = graph_of("ab", [("a", "b")])
        g.add_edge("b", "ghost")
        with pytest.raises(GraphValidationError, match="ghost"):
            g.validate()

    def test_duplicate_node_rejected(self):
        g = graph_of("a", [])
        with pytest.raises(GraphValidationError, match="duplicate"):
            g.add_node(TaskNode("a"))

    def test_negative_edge_bytes_rejected(self):
        with pytest.raises(GraphValidationError, match="negative"):
            DataEdge("a", "b", nbytes=-1.0)

    def test_topo_order_respects_dependencies(self):
        g = graph_of("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        order = [n.name for n in g.topo_order()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_topo_order_is_deterministic_insertion_order(self):
        # Independent ready nodes run in insertion order — the property
        # that keeps the DAG executor bitwise-identical to the pipeline.
        g = graph_of(["z", "m", "a"], [])
        assert [n.name for n in g.topo_order()] == ["z", "m", "a"]

    def test_linear_builds_a_chain_with_edge_bytes(self):
        phases = [cls() for cls in ITERATION_PHASES]
        g = TaskGraph.linear(phases, edge_bytes={("map", "combine"): 64.0})
        assert len(g) == len(phases)
        assert [e.label for e in g.edges] == [
            f"{a.name}->{b.name}" for a, b in zip(phases, phases[1:])
        ]
        assert g.edge("map", "combine").nbytes == 64.0
        assert g.edge("broadcast", "map").nbytes is None


class TestContiguousMinCut:
    def test_balanced_split_no_slide_needed(self):
        ranges, cut = contiguous_min_cut(
            [1.0] * 4, [5.0, 1.0, 5.0], [0.5, 0.5], slack=0
        )
        assert ranges == [(0, 2), (2, 4)]
        assert cut == 1.0

    def test_boundary_slides_to_cheaper_edge(self):
        # Nominal boundary at 2 costs 9; sliding one block right costs 1.
        ranges, cut = contiguous_min_cut(
            [1.0] * 4, [5.0, 9.0, 1.0], [0.5, 0.5], slack=1
        )
        assert ranges == [(0, 3), (3, 4)]
        assert cut == 1.0

    def test_single_device_has_no_cut(self):
        ranges, cut = contiguous_min_cut([1.0, 2.0], [7.0], [1.0])
        assert ranges == [(0, 2)]
        assert cut == 0.0

    def test_edge_count_must_match(self):
        with pytest.raises(GraphValidationError, match="needs 1 edge"):
            contiguous_min_cut([1.0, 1.0], [1.0, 1.0], [0.5, 0.5])


def run_job(app_factory, delta4, **config_kwargs):
    return PRSRuntime(delta4, JobConfig(**config_kwargs)).run(app_factory())


def cmeans_app():
    pts, _, _ = gaussian_mixture(600, 8, 3, seed=11)
    return CMeansApp(pts, 3, seed=11, max_iterations=4)


def gmm_app():
    pts, _, _ = gaussian_mixture(600, 8, 3, seed=11)
    return GMMApp(pts, 3, seed=11, max_iterations=4)


class _LegacyPipeline:
    """The pre-refactor linear loop, bypassing the TaskGraph executor."""

    def run(self, ctx):
        for phase_cls in ITERATION_PHASES:
            yield from phase_cls().run(ctx)


class TestLinearEquivalence:
    """The DAG executor reproduces the linear pipeline bit for bit."""

    @pytest.mark.parametrize("app_factory", [cmeans_app, gmm_app])
    def test_outputs_and_spans_match_legacy_pipeline(
        self, app_factory, delta4, monkeypatch
    ):
        dag_result = run_job(app_factory, delta4)
        monkeypatch.setattr(
            "repro.runtime.prs.iteration_graph", lambda ctx: _LegacyPipeline()
        )
        legacy_result = run_job(app_factory, delta4)
        assert pickle.dumps(dag_result.output) == pickle.dumps(
            legacy_result.output
        )
        assert dag_result.makespan == legacy_result.makespan
        assert phase_rows(dag_result.trace) == phase_rows(legacy_result.trace)

    def test_dag_attrs_present_on_phase_spans(self, delta4):
        result = run_job(lambda: CountdownApp(n=2000), delta4)
        spans = [
            s
            for s in result.trace.tracer.find(category="phase")
            if s.attrs.get("iteration") == 0 and s.name == "map"
        ]
        assert spans
        for span in spans:
            assert span.attrs["dag_node"] == "map"
            assert span.attrs["dag_edge"] == "broadcast->map"
            assert span.attrs["dag_edge_bytes"] > 0


class TestGraphPolicyFaultDeterminism:
    """The new policies keep faulted runs bitwise identical to fault-free
    runs, and fault plans are deterministic across repeats."""

    @pytest.mark.parametrize("policy", ["affinity", "graph-partition"])
    def test_faulted_output_matches_fault_free(self, policy, delta4):
        clean = run_job(gmm_app, delta4, scheduling=policy)
        faulted = run_job(
            gmm_app, delta4, scheduling=policy, faults="gpu_kill@1:t=0.02"
        )
        assert faulted.recovery is not None
        assert faulted.recovery.faults_injected == 1
        assert pickle.dumps(clean.output) == pickle.dumps(faulted.output)

    @pytest.mark.parametrize("policy", ["affinity", "graph-partition"])
    def test_fault_plan_is_deterministic(self, policy, delta4):
        kwargs = dict(
            scheduling=policy, faults="cpu_hiccup@0:t=0.01", fault_seed=3
        )
        first = run_job(gmm_app, delta4, **kwargs)
        second = run_job(gmm_app, delta4, **kwargs)
        assert pickle.dumps(first.output) == pickle.dumps(second.output)
        assert first.makespan == second.makespan
        assert phase_rows(first.trace) == phase_rows(second.trace)

    @pytest.mark.parametrize("policy", ["affinity", "graph-partition"])
    def test_decisions_are_audited(self, policy, delta4):
        result = run_job(gmm_app, delta4, scheduling=policy)
        kinds = {d.kind for d in result.trace.audit.records}
        expected = (
            "affinity-place" if policy == "affinity" else "graph-partition-cut"
        )
        assert expected in kinds
