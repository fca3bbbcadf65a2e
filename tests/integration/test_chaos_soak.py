"""Elastic chaos soak: the bitwise-identity gate.

A 12-iteration GMM job on an 8-node pool starts on 2 ranks, walks
2 -> 8 -> 4 (six joins, then drains), and is battered with a 3x
network-degradation window plus an involuntary rank kill while 8 ranks
are live.  The chaos run's model parameters and canonical output must be
BITWISE identical to a fault-free run of the same initial membership:
elasticity may move work between ranks but must never move a single
float (parts are cut once from the full-pool geometry and reduced in
canonical order; see docs/FAULTS.md "Elasticity").
"""

import numpy as np
import pytest

from repro.apps.gmm import GMMApp
from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime

CHAOS = [
    "join@2:t=0.04", "join@3:t=0.04", "join@4:t=0.04",
    "join@5:t=0.04", "join@6:t=0.04", "join@7:t=0.04",
    "net_slow@*:factor=3,t0=0.05,t1=0.07",
    "rank_kill@6:t=0.07",
    "drain@4:t=0.10", "drain@5:t=0.10", "drain@7:t=0.10",
]


def _run(faults=None):
    pts, _, _ = gaussian_mixture(2000, 6, 3, seed=6)
    app = GMMApp(pts, 3, seed=6, max_iterations=12)
    config = JobConfig(faults=faults, initial_nodes=2)
    result = PRSRuntime(delta_cluster(n_nodes=8), config).run(app)
    return app, result


def _canonical(result):
    return repr(sorted(result.output.items(), key=lambda kv: repr(kv[0])))


@pytest.fixture(scope="module")
def runs():
    return _run(), _run(CHAOS)


def test_chaos_run_is_bitwise_identical_to_fault_free(runs):
    (base_app, base), (soak_app, soak) = runs
    np.testing.assert_array_equal(base_app.weights, soak_app.weights)
    np.testing.assert_array_equal(base_app.means, soak_app.means)
    np.testing.assert_array_equal(base_app.covariances, soak_app.covariances)
    assert _canonical(soak) == _canonical(base), "output diverged"
    assert soak.iterations == base.iterations


def test_membership_walks_2_to_8_to_4(runs):
    _, (_, soak) = runs
    rec = soak.recovery
    sizes = [len(e.members) for e in rec.epochs]
    assert sizes[0] == 2 and max(sizes) == 8 and sizes[-1] == 4, sizes
    assert rec.rank_restarts >= 1 and rec.dead_nodes == (6,)


def test_membership_churn_alert_fires(runs):
    _, (_, soak) = runs
    rules = sorted({a.rule for a in soak.alerts})
    assert "membership-churn" in rules, rules
