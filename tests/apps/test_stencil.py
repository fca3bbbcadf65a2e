"""Tests for the 1-D Jacobi stencil application."""

import numpy as np
import pytest

from repro.apps.stencil import Jacobi1DApp, jacobi_reference
from repro.runtime.api import Block
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from repro.runtime.shuffle import group_by_key

from tests.helpers import jacobi_hot_spot


def drive(app, iterations=None, block=32):
    limit = iterations if iterations is not None else app.max_iterations
    done = 0
    for _ in range(limit):
        pairs = []
        for lo in range(0, app.n_items(), block):
            pairs.extend(app.cpu_map(Block(lo, min(lo + block, app.n_items()))))
        reduced = {k: app.cpu_reduce(k, v) for k, v in group_by_key(pairs).items()}
        app.update(reduced)
        done += 1
        if iterations is None and app.converged:
            break
    return done


class TestJacobiMath:
    def test_matches_serial_reference(self):
        app = jacobi_hot_spot(200, max_iterations=10)
        expected = jacobi_reference(app.grid, 10)
        drive(app, iterations=10)
        np.testing.assert_allclose(app.grid, expected, rtol=1e-12)

    def test_block_size_invariance(self):
        def run(block):
            app = jacobi_hot_spot(150)
            drive(app, iterations=8, block=block)
            return app.grid

        np.testing.assert_array_equal(run(7), run(64))

    def test_boundaries_fixed(self):
        app = jacobi_hot_spot(100)
        drive(app, iterations=15)
        assert app.grid[0] == 100.0
        assert app.grid[-1] == 0.0

    def test_residual_decreases(self):
        app = jacobi_hot_spot(100)
        drive(app, iterations=20)
        hist = app.residual_history
        # Jacobi converges monotonically on this problem after warmup.
        assert hist[-1] < hist[1]

    def test_converges_toward_linear_profile(self):
        app = jacobi_hot_spot(20, epsilon=1e-10, max_iterations=5000)
        drive(app)
        np.testing.assert_allclose(app.grid, app.steady_state(), atol=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Jacobi1DApp(np.zeros(2))
        with pytest.raises(ValueError):
            Jacobi1DApp(np.zeros((3, 3)))


class TestJacobiOnPRS:
    def test_distributed_matches_serial(self, delta4):
        app = jacobi_hot_spot(500, max_iterations=6, epsilon=1e-15)
        expected = jacobi_reference(app.grid, 6)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.iterations == 6
        np.testing.assert_allclose(app.grid, expected, rtol=1e-12)

    def test_communication_heavy_profile(self, delta4):
        """gamma ~ 1: the shuffle moves roughly the grid every iteration."""
        app = jacobi_hot_spot(40_000, max_iterations=4, epsilon=1e-15)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        grid_bytes = 40_000 * 8
        per_iter = result.network_bytes / result.iterations
        assert per_iter > 0.5 * grid_bytes

    def test_network_aware_model_flags_it(self, delta):
        """The §V network extension identifies the stencil as the workload
        class where co-processing can stop paying on a slow interconnect."""
        from repro.core.network_aware import (
            coprocessing_gain,
            network_aware_split,
        )
        from repro.hardware.cluster import NetworkSpec

        app = jacobi_hot_spot(100)
        slow = NetworkSpec(latency=1e-5, bandwidth=0.01)
        split = network_aware_split(
            delta, app.intensity().at(1e6), gamma=1.0, network=slow
        )
        assert split.cpu_network_bound and split.gpu_network_bound
        assert coprocessing_gain(split) == 1.0
