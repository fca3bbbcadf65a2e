"""End-to-end fault tolerance: numerical identity, bounds, determinism.

The load-bearing property (docs/FAULTS.md): block boundaries are computed
from the *nominal* device set and every block's emissions are flushed in
block order, so a job that loses a GPU daemon mid-iteration re-executes
the dead device's blocks elsewhere and still reduces **bitwise** the same
pair stream as the fault-free run — same centroids, same parameters, down
to the last ulp.
"""

import numpy as np
import pytest

from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from repro.simulate.faults import degraded_makespan_bound

KILL_T = 0.03  # lands mid-iteration for every app below (setup ends ~0.02)


def _points():
    pts, _, _ = gaussian_mixture(2000, 6, 3, seed=5)
    return pts


def _run(app, faults=None, n_nodes=2, **kwargs):
    config = JobConfig(faults=faults, **kwargs)
    return PRSRuntime(delta_cluster(n_nodes=n_nodes), config).run(app)


def _canonical_output(result):
    return sorted(result.output.items(), key=lambda kv: repr(kv[0]))


class TestGpuKillNumericalIdentity:
    def test_cmeans_converges_identically(self):
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        clean_app = CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12)
        clean = _run(clean_app)
        faulted_app = CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12)
        faulted = _run(faulted_app, faults=f"gpu_kill@0:t={KILL_T}")

        assert faulted.recovery is not None
        assert faulted.recovery.blocks_retried > 0
        assert faulted.iterations == clean.iterations
        np.testing.assert_array_equal(clean_app.centers, faulted_app.centers)
        assert repr(_canonical_output(clean)) == repr(_canonical_output(faulted))

    def test_gmm_converges_identically(self):
        from repro.apps.gmm import GMMApp

        pts = _points()
        clean_app = GMMApp(pts, 3, seed=6, max_iterations=3)
        clean = _run(clean_app)
        faulted_app = GMMApp(pts, 3, seed=6, max_iterations=3)
        faulted = _run(faulted_app, faults=f"gpu_kill@0:t={KILL_T}")

        assert faulted.recovery.blocks_retried > 0
        assert faulted.iterations == clean.iterations
        np.testing.assert_array_equal(clean_app.weights, faulted_app.weights)
        np.testing.assert_array_equal(clean_app.means, faulted_app.means)
        np.testing.assert_array_equal(
            clean_app.covariances, faulted_app.covariances
        )


class TestDegradedMakespan:
    def test_gpu_kill_within_analytic_bound(self):
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        clean = _run(CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12))
        faulted = _run(
            CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12),
            faults=f"gpu_kill@0:t={KILL_T}",
        )
        # The dead GPU held gpu_fraction of one node out of two.
        split = clean.splits[0]
        lost = split.gpu_fraction / 2
        bound = degraded_makespan_bound(clean.makespan, KILL_T, lost)
        assert clean.makespan < faulted.makespan <= bound


class TestCombinedPlanBound:
    """``degraded_makespan_bound`` composes: a kill's capacity-loss
    inflation plus window degradations folded into ``overhead_s``."""

    NET_F, NET_T0, NET_T1 = 3.0, 0.02, 0.05

    def _apps(self):
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        return (
            CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12),
            CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12),
        )

    def test_gpu_kill_plus_net_slow_within_composed_bound(self):
        clean_app, faulted_app = self._apps()
        clean = _run(clean_app)
        faulted = _run(
            faulted_app,
            faults=[
                f"gpu_kill@0:t={KILL_T}",
                f"net_slow@*:factor={self.NET_F},t0={self.NET_T0},"
                f"t1={self.NET_T1}",
            ],
        )
        split = clean.splits[0]
        lost = split.gpu_fraction / 2
        # A degraded window [t0, t1] can stall the critical path by at
        # most the work it would have carried: (t1-t0) * (factor-1).
        net_overhead = (self.NET_T1 - self.NET_T0) * (self.NET_F - 1.0)
        bound = degraded_makespan_bound(
            clean.makespan, KILL_T, lost, overhead_s=net_overhead
        )
        assert clean.makespan < faulted.makespan <= bound
        # ... and numerical identity survives the combined plan.
        np.testing.assert_array_equal(clean_app.centers, faulted_app.centers)
        assert repr(_canonical_output(clean)) == repr(
            _canonical_output(faulted)
        )

    def test_gpu_kill_plus_straggler_within_composed_bound(self):
        strag_f, strag_t0, strag_t1 = 2.0, 0.02, 0.06
        clean_app, faulted_app = self._apps()
        clean = _run(clean_app)
        faulted = _run(
            faulted_app,
            faults=[
                f"gpu_kill@0:t={KILL_T}",
                f"straggler@1.cpu:factor={strag_f},t0={strag_t0},"
                f"t1={strag_t1}",
            ],
        )
        split = clean.splits[0]
        lost = split.gpu_fraction / 2
        strag_overhead = (strag_t1 - strag_t0) * (strag_f - 1.0)
        bound = degraded_makespan_bound(
            clean.makespan, KILL_T, lost, overhead_s=strag_overhead
        )
        assert clean.makespan < faulted.makespan <= bound
        np.testing.assert_array_equal(clean_app.centers, faulted_app.centers)


class TestFaultedDeterminism:
    SPECS = [
        "gpu_kill@0:t=0.025~0.04",  # ranged: exercises seeded sampling
        "straggler@1.cpu:factor=1.5~3,t0=0.02,t1=0.05",
    ]

    def _run_once(self):
        from repro.apps.cmeans import CMeansApp

        app = CMeansApp(
            _points(), 3, seed=6, max_iterations=3, epsilon=1e-12
        )
        result = _run(app, faults=self.SPECS, fault_seed=7)
        return result, app

    def test_same_plan_seed_is_bit_identical(self):
        r1, a1 = self._run_once()
        r2, a2 = self._run_once()
        assert r1.makespan == r2.makespan  # exact, not approx
        assert r1.recovery == r2.recovery
        np.testing.assert_array_equal(a1.centers, a2.centers)
        assert len(r1.trace.records) == len(r2.trace.records)
        for rec1, rec2 in zip(r1.trace.records, r2.trace.records):
            assert rec1 == rec2

    def test_different_fault_seed_changes_schedule(self):
        from repro.apps.cmeans import CMeansApp

        makespans = set()
        for seed in (7, 8, 9):
            app = CMeansApp(
                _points(), 3, seed=6, max_iterations=3, epsilon=1e-12
            )
            makespans.add(
                _run(app, faults=self.SPECS, fault_seed=seed).makespan
            )
        assert len(makespans) > 1


class TestZeroFaultPath:
    @pytest.mark.parametrize("scheduling", ["static", "dynamic"])
    def test_no_plan_matches_empty_plan_runs(self, scheduling):
        """An empty fault plan must not perturb the schedule at all."""
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        a1 = CMeansApp(pts, 3, seed=6, max_iterations=3, epsilon=1e-12)
        r1 = _run(a1, scheduling=scheduling)
        a2 = CMeansApp(pts, 3, seed=6, max_iterations=3, epsilon=1e-12)
        r2 = _run(a2, faults=[], scheduling=scheduling)
        assert r1.recovery is None and r2.recovery is None
        assert r1.makespan == r2.makespan
        np.testing.assert_array_equal(a1.centers, a2.centers)
        for rec1, rec2 in zip(r1.trace.records, r2.trace.records):
            assert rec1 == rec2
