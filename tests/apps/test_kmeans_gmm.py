"""Tests for K-means and GMM EM applications."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.apps.gmm import GMMApp, gmm_responsibilities, log_gaussian_pdf
from repro.apps.kmeans import KMeansApp, nearest_centers
from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.runtime.api import Block
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from repro.runtime.shuffle import group_by_key


def drive(app, iterations=None, block=128):
    limit = iterations if iterations is not None else app.max_iterations
    done = 0
    for _ in range(limit):
        pairs = []
        for lo in range(0, app.n_items(), block):
            pairs.extend(app.cpu_map(Block(lo, min(lo + block, app.n_items()))))
        reduced = {k: app.cpu_reduce(k, vs) for k, vs in group_by_key(pairs).items()}
        app.update(reduced)
        done += 1
        if iterations is None and app.converged:
            break
    return done


class TestKMeans:
    def test_sse_monotone_decreasing(self):
        pts, _, _ = gaussian_mixture(500, 4, 3, seed=1)
        app = KMeansApp(pts, 3, seed=2)
        drive(app, iterations=6)
        hist = app.sse_history
        assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))

    def test_converges_and_recovers_centers(self):
        pts, _, true_centers = gaussian_mixture(2000, 3, 3, seed=4, spread=25.0)
        app = KMeansApp(pts, 3, seed=5, max_iterations=40)
        drive(app)
        assert app.converged
        for tc in true_centers.astype(np.float64):
            assert np.min(np.linalg.norm(app.centers - tc, axis=1)) < 1.0

    def test_block_invariance(self):
        pts, _, _ = gaussian_mixture(400, 3, 2, seed=6)

        def run(bs):
            app = KMeansApp(pts, 2, seed=3)
            drive(app, iterations=4, block=bs)
            return app.centers

        np.testing.assert_allclose(run(50), run(173), rtol=1e-9)

    def test_labels_are_nearest(self):
        pts, _, _ = gaussian_mixture(200, 2, 2, seed=7)
        app = KMeansApp(pts, 2, seed=7)
        drive(app, iterations=3)
        np.testing.assert_array_equal(
            app.labels(), nearest_centers(pts, app.centers)
        )

    def test_empty_cluster_keeps_center(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], dtype=np.float32)
        app = KMeansApp(pts, 2, seed=0)
        # Force a far-away center that will capture no points.
        app.centers[1] = np.array([100.0, 100.0])
        before = app.centers[1].copy()
        drive(app, iterations=1)
        np.testing.assert_array_equal(app.centers[1], before)

    def test_kmeans_intensity_below_cmeans(self):
        pts, _, _ = gaussian_mixture(100, 2, 2, seed=0)
        from repro.apps.cmeans import CMeansApp

        k = KMeansApp(pts, 2)
        c = CMeansApp(pts, 2)
        assert k.intensity().at(1e6) < c.intensity().at(1e6)


class TestGaussianPdf:
    def test_standard_normal_at_origin(self):
        # log N(0 | 0, I) in 2-D = -log(2 pi)
        val = log_gaussian_pdf(
            np.zeros((1, 2)), np.zeros(2), np.eye(2)
        )
        assert val[0] == pytest.approx(-np.log(2 * np.pi))

    def test_matches_scipy(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(3)
        mean = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        x = rng.normal(size=(20, 3))
        ours = log_gaussian_pdf(x, mean, cov)
        ref = multivariate_normal(mean, cov).logpdf(x)
        np.testing.assert_allclose(ours, ref, rtol=1e-9)


class TestGMM:
    def test_responsibilities_sum_to_one(self):
        pts, _, _ = gaussian_mixture(200, 3, 2, seed=1)
        app = GMMApp(pts, 2, seed=1)
        gamma, ll = gmm_responsibilities(
            pts.astype(np.float64), app.weights, app.means, app.covariances
        )
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=1e-9)
        assert np.isfinite(ll)

    def test_loglik_monotone_nondecreasing(self):
        """EM guarantee: log-likelihood never drops."""
        pts, _, _ = gaussian_mixture(600, 3, 3, seed=2, spread=8.0)
        app = GMMApp(pts, 3, seed=2)
        drive(app, iterations=8)
        hist = app.loglik_history
        assert len(hist) == 8
        assert all(b >= a - 1e-6 * abs(a) for a, b in zip(hist, hist[1:]))

    def test_weights_stay_normalized(self):
        pts, _, _ = gaussian_mixture(300, 2, 3, seed=3)
        app = GMMApp(pts, 3, seed=3)
        drive(app, iterations=5)
        assert app.weights.sum() == pytest.approx(1.0)
        assert np.all(app.weights >= 0)

    def test_covariances_positive_definite(self):
        pts, _, _ = gaussian_mixture(300, 4, 2, seed=4)
        app = GMMApp(pts, 2, seed=4)
        drive(app, iterations=5)
        for cov in app.covariances:
            eigvals = np.linalg.eigvalsh(cov)
            assert np.all(eigvals > 0)

    def test_recovers_mixture_parameters(self):
        pts, labels, true_centers = gaussian_mixture(
            3000, 2, 2, seed=5, spread=12.0, weights=np.array([0.7, 0.3])
        )
        app = GMMApp(pts, 2, seed=6, max_iterations=50)
        drive(app)
        # match components to truth by nearest mean
        order = [
            int(np.argmin(np.linalg.norm(app.means - tc, axis=1)))
            for tc in true_centers.astype(np.float64)
        ]
        assert sorted(order) == [0, 1]
        weights = app.weights[order]
        np.testing.assert_allclose(weights, [0.7, 0.3], atol=0.05)

    def test_converges_by_tolerance(self):
        pts, _, _ = gaussian_mixture(500, 2, 2, seed=7, spread=15.0)
        app = GMMApp(pts, 2, seed=7, tolerance=1e-6, max_iterations=100)
        iters = drive(app)
        assert app.converged
        assert iters < 100

    def test_block_invariance(self):
        pts, _, _ = gaussian_mixture(300, 3, 2, seed=8)

        def run(bs):
            app = GMMApp(pts, 2, seed=8)
            drive(app, iterations=3, block=bs)
            return app.means

        np.testing.assert_allclose(run(64), run(97), rtol=1e-7)

    def test_combiner_associative(self):
        pts, _, _ = gaussian_mixture(200, 3, 2, seed=9)
        app = GMMApp(pts, 2, seed=9)
        a = [v for k, v in app.cpu_map(Block(0, 100)) if k == 0]
        b = [v for k, v in app.cpu_map(Block(100, 200)) if k == 0]
        direct = app.cpu_reduce(0, a + b)
        staged = app.cpu_reduce(0, [app.combiner(0, a), app.combiner(0, b)])
        assert direct[0] == pytest.approx(staged[0])
        np.testing.assert_allclose(direct[1], staged[1], rtol=1e-12)
        np.testing.assert_allclose(direct[2], staged[2], rtol=1e-12)

    def test_gmm_intensity_matches_table5(self):
        pts, _, _ = gaussian_mixture(100, 60, 2, seed=0)
        app = GMMApp(pts, 10, seed=0)
        assert app.intensity().at(1e6) == 11.0 * 10 * 60


def per_block_factor_map(app, block):
    """``GMMApp.cpu_map`` as it was when every block factorized every
    component itself: ``np.linalg.cholesky`` plus ``solve_triangular``."""
    from scipy.linalg import solve_triangular

    x = app.points[block.start : block.stop].astype(np.float64)
    d = x.shape[1]
    log_prob = np.empty((x.shape[0], app.n_components), dtype=np.float64)
    for m in range(app.n_components):
        chol = np.linalg.cholesky(app.covariances[m])
        diff = x - app.means[m]
        sol = solve_triangular(chol, diff.T, lower=True)
        maha = np.sum(sol * sol, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        log_prob[:, m] = np.log(max(app.weights[m], 1e-300)) + (
            -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)
        )
    top = np.max(log_prob, axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        norm = top[:, 0] + np.log(np.sum(np.exp(log_prob - top), axis=1))
    gamma = np.exp(log_prob - norm[:, None])
    pairs = []
    for m in range(app.n_components):
        g = gamma[:, m]
        pairs.append((m, (float(np.sum(g)), g @ x, (x * g[:, None]).T @ x)))
    pairs.append(("loglik", float(np.sum(norm))))
    return pairs


def assert_pairs_bitwise(got, want):
    def bits(pairs):
        return [
            (key, [(np.shape(p), np.asarray(p).tobytes())
                   for p in (v if isinstance(v, tuple) else (v,))])
            for key, v in pairs
        ]

    assert bits(got) == bits(want)


class TestFactorCache:
    """The E step factorizes each covariance once per iteration and stays
    bit-for-bit equal to factorizing in every block."""

    @settings(max_examples=25)
    @given(
        n=st.integers(30, 120),
        d=st.integers(1, 5),
        n_comp=st.integers(1, 4),
        cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_block_factorization(self, n, d, n_comp, cuts, seed):
        pts, _, _ = gaussian_mixture(n, d, n_comp, seed=seed)
        app = GMMApp(pts, n_comp, seed=seed)
        edges = sorted({0, n, *(int(c * n) for c in cuts)})
        blocks = [Block(lo, hi) for lo, hi in zip(edges, edges[1:])]
        blocks.insert(1, Block(edges[1], edges[1]))  # an empty block
        snapshot = None
        for rnd in range(3):
            pairs = []
            for i, block in enumerate(blocks):
                got = app.cpu_map(block)
                assert_pairs_bitwise(got, per_block_factor_map(app, block))
                pairs.extend(got)
                if rnd == 1 and i == 0:
                    snapshot = app.checkpoint()
            app.update({k: app.cpu_reduce(k, vs)
                        for k, vs in group_by_key(pairs).items()})
        # Back to mid-round 1: the restored cache matches the restored state.
        app.restore(snapshot)
        for block in blocks[1:]:
            assert_pairs_bitwise(app.cpu_map(block),
                                 per_block_factor_map(app, block))

    def test_nan_point_raises_value_error(self):
        pts, _, _ = gaussian_mixture(40, 3, 2, seed=1)
        app = GMMApp(pts, 2, seed=1)
        app.cpu_map(Block(0, 20))  # factors built from clean data
        app.points[25, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            app.cpu_map(Block(20, 40))

    def test_non_positive_definite_covariance_raises(self):
        pts, _, _ = gaussian_mixture(40, 3, 2, seed=2)
        app = GMMApp(pts, 2, seed=2)
        app.covariances[1] = -np.eye(3)
        with pytest.raises(np.linalg.LinAlgError):
            app.cpu_map(Block(0, 40))

    def test_non_finite_covariance_raises_value_error(self):
        pts, _, _ = gaussian_mixture(40, 3, 2, seed=3)
        app = GMMApp(pts, 2, seed=3)
        app.covariances[0] = np.diag([1.0, np.inf, 1.0])
        with pytest.raises(ValueError, match="infs or NaNs"):
            app.cpu_map(Block(0, 40))


class TestFactorWorkGate:
    """A PRS GMM job runs one Cholesky per component per iteration, and
    counting them perturbs nothing."""

    COMPONENTS = 3
    ITERATIONS = 4

    def _run(self):
        pts, _, _ = gaussian_mixture(3000, 8, self.COMPONENTS, seed=11)
        app = GMMApp(pts, self.COMPONENTS, tolerance=1e-300,
                     max_iterations=self.ITERATIONS, seed=11)
        result = PRSRuntime(delta_cluster(4),
                            JobConfig(scheduling="static")).run(app)
        assert result.iterations == self.ITERATIONS
        return result

    def test_one_factorization_per_component_per_iteration(self, monkeypatch):
        plain = self._run()
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(1)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        counted = self._run()
        blocks = counted.trace.metrics.get(obs.DEVICE_TASKS).total()
        assert blocks > self.ITERATIONS  # many blocks per iteration
        assert len(calls) == self.COMPONENTS * self.ITERATIONS
        assert counted.engine_events == plain.engine_events
        assert counted.makespan == plain.makespan
        assert (counted.trace.metrics.get(obs.COMM_BYTES).total()
                == plain.trace.metrics.get(obs.COMM_BYTES).total())
