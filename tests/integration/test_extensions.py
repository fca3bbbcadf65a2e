"""Integration tests for extensions beyond the paper's base evaluation:
K-means performance ratios, multi-GPU nodes, perturbed-device dynamic
scheduling, and the iteration log plumbing."""

import numpy as np
import pytest

from repro.apps.cmeans import CMeansApp
from repro.apps.kmeans import KMeansApp
from repro.baselines import MpiCpuBaseline, MpiGpuBaseline, WorkloadSpec
from repro.core.intensity import cmeans_intensity, kmeans_intensity
from repro.data.synth import gaussian_mixture
from repro.hardware import Cluster, delta_cluster, delta_node
from repro.runtime.job import JobConfig, Overheads, Scheduling
from repro.runtime.prs import PRSRuntime
from tests.helpers import scaled

QUIET = Overheads(0.0, 0.0, 0.0, 0.0)


class TestKMeansPerformanceRatios:
    """'We also have seen similar performance ratios for Kmeans' (§IV.A.1)."""

    def test_cpu_gpu_ratio_similar_to_cmeans(self, delta4):
        def ratio(intensity):
            w = WorkloadSpec(
                total_bytes=4e8, intensity=intensity, iterations=10,
                state_bytes=8000.0, resident=True,
            )
            return (
                MpiCpuBaseline(delta4).run_seconds(w)
                / MpiGpuBaseline(delta4).run_seconds(w)
            )

        r_cmeans = ratio(cmeans_intensity(10))
        r_kmeans = ratio(kmeans_intensity(10))
        assert r_kmeans == pytest.approx(r_cmeans, rel=0.3)

    def test_prs_kmeans_coprocessing_gain_similar(self, delta4):
        pts, _, _ = gaussian_mixture(30_000, 32, 10, seed=3)

        def gain(app_cls):
            t = {}
            for use_cpu in (True, False):
                app = app_cls(pts, 10, seed=4, max_iterations=3, epsilon=1e-12)
                config = JobConfig(use_cpu=use_cpu, overheads=QUIET)
                t[use_cpu] = PRSRuntime(delta4, config).run(app).makespan
            return t[False] / t[True]

        g_cmeans = gain(CMeansApp)
        g_kmeans = gain(KMeansApp)
        assert g_kmeans == pytest.approx(g_cmeans, abs=0.15)


class TestMultiGpuNodes:
    """Delta nodes carry two C2070s (Table 4); PRS can drive both."""

    def make_cluster(self, n_gpus):
        nodes = tuple(
            delta_node(name=f"d{i}", n_gpus=n_gpus) for i in range(2)
        )
        return Cluster(name="delta2", nodes=nodes)

    def test_two_gpus_beat_one_on_high_intensity(self):
        pts, _, _ = gaussian_mixture(60_000, 32, 100, seed=5)

        def run(gpus):
            app = CMeansApp(pts, 100, seed=6, max_iterations=2, epsilon=1e-12)
            config = JobConfig(gpus_per_node=gpus, overheads=QUIET)
            return PRSRuntime(self.make_cluster(2), config).run(app).makespan

        t1, t2 = run(1), run(2)
        assert t2 < t1 * 0.7  # second GPU absorbs most of the 89% GPU share

    def test_output_correct_with_two_gpus(self):
        from tests.helpers import ModSumApp

        app = ModSumApp(n=2000, n_keys=4)
        config = JobConfig(gpus_per_node=2, overheads=QUIET)
        result = PRSRuntime(self.make_cluster(2), config).run(app)
        assert result.output == app.expected_output()

    def test_both_gpus_record_work(self):
        pts, _, _ = gaussian_mixture(20_000, 16, 50, seed=7)
        app = CMeansApp(pts, 50, seed=8, max_iterations=2, epsilon=1e-12)
        config = JobConfig(gpus_per_node=2, overheads=QUIET)
        result = PRSRuntime(self.make_cluster(2), config).run(app)
        assert result.trace.total_flops("d0.gpu0") > 0
        assert result.trace.total_flops("d0.gpu1") > 0


class TestDynamicAdaptsToPerturbedDevices:
    """Dynamic scheduling self-corrects when the hardware diverges from
    its spec — static trusts the (now wrong) model."""

    def perturbed_cluster(self, gpu_factor):
        base = delta_node(n_gpus=1)
        from repro.hardware import FatNode

        slow = FatNode(
            name="slow",
            cpu=base.cpu,
            gpus=(scaled(base.gpu, gpu_factor),),
        )
        return Cluster(name="slow", nodes=(slow,))

    def test_dynamic_beats_static_on_misdescribed_gpu(self):
        """The *spec* says full speed; the simulated silicon runs at 20 %.
        We model that by forcing static to the healthy-GPU p on a slow-GPU
        cluster, while dynamic polls its way around the slowdown."""
        pts, _, _ = gaussian_mixture(100_000, 32, 100, seed=9)
        healthy_p = 0.112  # Equation (8) for the healthy GPU
        cluster = self.perturbed_cluster(0.2)

        def run(scheduling, force=None):
            app = CMeansApp(pts, 100, seed=10, max_iterations=2, epsilon=1e-12)
            config = JobConfig(
                scheduling=scheduling, force_cpu_fraction=force,
                overheads=QUIET, dynamic_blocks=256,
            )
            return PRSRuntime(cluster, config).run(app).makespan

        t_static_stale = run(Scheduling.STATIC, force=healthy_p)
        t_dynamic = run(Scheduling.DYNAMIC)
        assert t_dynamic < t_static_stale


class TestIterationLogPlumbing:
    def test_non_iterative_jobs_log_one_iteration(self, delta4):
        from tests.helpers import ModSumApp

        result = PRSRuntime(delta4, JobConfig()).run(ModSumApp(n=500))
        assert result.iteration_log is not None
        assert len(result.iteration_log) == 1

    def test_log_covers_all_iterations(self, delta4):
        from tests.helpers import CountdownApp

        result = PRSRuntime(delta4, JobConfig()).run(CountdownApp(rounds=5))
        assert len(result.iteration_log) == 5
        assert result.iteration_log.total_time <= result.makespan
