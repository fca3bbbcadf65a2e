"""Cross-validation: the DES simulation against the closed-form model.

The whole reproduction hinges on the simulator and the analytic model
agreeing where they describe the same thing.  With overheads zeroed and a
single map wave, the simulated makespan of a single-device run must match
the roofline prediction; a co-processed run must match ``T_gc`` of
Equations (1)-(3); and the weak-scaling trace must conserve flops.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic import predicted_runtime
from repro.core.intensity import ConstantIntensity
from repro.hardware import Cluster, delta_cluster, delta_node
from repro.runtime.api import Block, MapReduceApp
from repro.runtime.job import JobConfig, Overheads, Scheduling
from repro.runtime.prs import PRSRuntime

QUIET = Overheads(0.0, 0.0, 0.0, 0.0)


class SyntheticApp(MapReduceApp):
    """Pure cost-model app: negligible functional work, exact metadata.

    Map emits a single tiny pair, so the shuffle/reduce stages cost ~0 and
    the makespan isolates the map-stage device time the analytic model
    predicts.
    """

    name = "synthetic"

    def __init__(self, n_items: int, item_bytes: float, intensity: float):
        self._n = n_items
        self._bytes = item_bytes
        self._intensity = ConstantIntensity(intensity, label="syn")

    def n_items(self) -> int:
        return self._n

    def item_bytes(self) -> float:
        return self._bytes

    def intensity(self):
        return self._intensity

    def map_output_bytes(self, block: Block) -> float:
        return 8.0

    def reduce_flops(self, key, values) -> float:
        return 1.0

    def cpu_map(self, block: Block):
        return [("w", block.n_items)]

    def cpu_reduce(self, key, values):
        return sum(values)


def one_node_cluster():
    return Cluster(name="one", nodes=(delta_node("one", n_gpus=1),))


def run_synthetic(ai, *, use_cpu=True, use_gpu=True, n=120_000, force_p=None):
    app = SyntheticApp(n, item_bytes=64.0, intensity=ai)
    config = JobConfig(
        use_cpu=use_cpu,
        use_gpu=use_gpu,
        overheads=QUIET,
        partitions_per_node=1,  # one map wave: comparable to the formula
        force_cpu_fraction=force_p,
        overlap_threshold=1.0,  # serialize GPU blocks: closed-form below
    )
    result = PRSRuntime(one_node_cluster(), config).run(app)
    return app, result


def gpu_serial_seconds(node, ai, nbytes):
    """Closed form of the simulator's GPU path: h2d copy then kernel.

    The roofline's first Equation-(7) branch assumes steady-state overlap
    of transfer and compute (``max``); a single serialized block pays the
    ``sum``.  The co-processing experiments of the paper stream/pipeline,
    so Equation (8) uses the overlap form; this helper is the exact
    serialized counterpart the simulator implements with streams off.
    """
    gpu = node.gpu
    transfer = nbytes / (gpu.pcie_bandwidth * 1e9)
    kernel = ai * nbytes / (
        gpu.attainable_gflops(ai, staged=False) * 1e9
    )
    return transfer + kernel


def cpu_seconds(node, ai, nbytes):
    return ai * nbytes / (node.cpu.attainable_gflops(ai) * 1e9)


class TestSingleDeviceAgreement:
    @settings(max_examples=15, deadline=None)
    @given(ai=st.floats(1.0, 2000.0))
    def test_gpu_only_matches_serial_form_exactly(self, ai):
        app, result = run_synthetic(ai, use_cpu=False)
        node = one_node_cluster().nodes[0]
        expected = gpu_serial_seconds(node, ai, app.total_bytes())
        assert result.makespan == pytest.approx(expected, rel=0.02)

    @settings(max_examples=15, deadline=None)
    @given(ai=st.floats(1.0, 2000.0))
    def test_gpu_only_sandwiched_by_roofline(self, ai):
        """Roofline (full overlap) <= simulated (serialized) <= 2x roofline:
        the max-vs-sum bracket of the streaming-balance assumption."""
        app, result = run_synthetic(ai, use_cpu=False)
        node = one_node_cluster().nodes[0]
        roofline = predicted_runtime(
            node, ai, app.total_bytes(), p=0.0, staged=True
        )
        assert roofline * 0.98 <= result.makespan <= 2.0 * roofline * 1.02

    @settings(max_examples=15, deadline=None)
    @given(ai=st.floats(1.0, 2000.0))
    def test_cpu_only_matches_roofline(self, ai):
        app, result = run_synthetic(ai, use_gpu=False)
        node = one_node_cluster().nodes[0]
        expected = predicted_runtime(
            node, ai, app.total_bytes(), p=1.0, staged=True
        )
        assert result.makespan == pytest.approx(expected, rel=0.05)


class TestCoprocessedAgreement:
    @settings(max_examples=15, deadline=None)
    @given(ai=st.floats(1.0, 2000.0))
    def test_both_devices_match_serial_t_gc(self, ai):
        """Simulated co-processing time = max of the two device paths'
        closed forms (Equation 1 with the serialized GPU branch)."""
        app, result = run_synthetic(ai)
        node = one_node_cluster().nodes[0]
        p = result.splits[0].p
        nbytes = app.total_bytes()
        expected = max(
            cpu_seconds(node, ai, p * nbytes),
            gpu_serial_seconds(node, ai, (1.0 - p) * nbytes),
        )
        # Item-granularity rounding + CPU block tail effects: 10%.
        assert result.makespan == pytest.approx(expected, rel=0.10)

    @settings(max_examples=10, deadline=None)
    @given(ai=st.floats(5.0, 500.0), p=st.floats(0.05, 0.95))
    def test_forced_fraction_matches_formula(self, ai, p):
        app, result = run_synthetic(ai, force_p=p)
        node = one_node_cluster().nodes[0]
        nbytes = app.total_bytes()
        expected = max(
            cpu_seconds(node, ai, p * nbytes),
            gpu_serial_seconds(node, ai, (1.0 - p) * nbytes),
        )
        assert result.makespan == pytest.approx(expected, rel=0.10)

    @settings(max_examples=10, deadline=None)
    @given(ai=st.floats(1.0, 2000.0))
    def test_analytic_p_nearly_ties_any_forced_p(self, ai):
        """Optimality end-to-end: no materially different fraction beats
        the Equation (8) split by more than the serialization slack (the
        model optimizes the overlapped form; the serialized GPU branch can
        shift the simulated optimum slightly toward the CPU)."""
        _, best = run_synthetic(ai)
        for p in (0.05, 0.3, 0.7, 0.95):
            _, other = run_synthetic(ai, force_p=p)
            assert best.makespan <= other.makespan * 1.6


class TestFlopConservation:
    @settings(max_examples=10, deadline=None)
    @given(
        ai=st.floats(1.0, 500.0),
        scheduling=st.sampled_from([Scheduling.STATIC, Scheduling.DYNAMIC]),
    )
    def test_trace_flops_equal_app_flops(self, ai, scheduling):
        app = SyntheticApp(50_000, item_bytes=64.0, intensity=ai)
        config = JobConfig(scheduling=scheduling, overheads=QUIET)
        result = PRSRuntime(delta_cluster(2), config).run(app)
        map_flops = sum(
            r.attrs["flops"] for r in result.trace.filter(kind="compute")
        )
        expected = ai * app.total_bytes()
        assert map_flops == pytest.approx(expected, rel=1e-6)
