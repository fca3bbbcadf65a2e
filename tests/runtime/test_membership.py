"""Elastic membership: the versioned view, the schedule, the autoscaler,
and the elastic driver end to end.

The load-bearing property (docs/FAULTS.md "Elasticity"): membership
transitions re-assign *canonical* parts — cut once from the full-pool
Equation (8) geometry — so a job that walks its rank set mid-run reduces
**bitwise** the same pair stream as a fault-free run of the same
configuration.
"""

import numpy as np
import pytest

from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.obs.metrics import POLICY_QUEUE_DEPTH_CURRENT
from repro.obs.timeseries import (
    DEVICE_BUSY_FRACTION,
    DEVICE_IMBALANCE,
    LINK_UTILIZATION,
    SeriesBank,
)
from repro.runtime.autoscale import AutoscalePolicy, Autoscaler
from repro.runtime.job import JobConfig
from repro.runtime.membership import (
    MAX_EPOCHS,
    ClusterView,
    ElasticState,
    EpochRecord,
    MembershipError,
    MembershipEvent,
    MembershipSchedule,
)
from repro.runtime.prs import PRSRuntime
from repro.runtime.recovery import RecoverySummary


class TestClusterView:
    def test_defaults_to_full_pool_with_start_epoch(self):
        view = ClusterView(4)
        assert view.members() == [0, 1, 2, 3]
        assert view.epoch == 0
        assert len(view.history) == 1
        assert view.history[0].cause == "start"
        assert view.history[0].members == (0, 1, 2, 3)

    def test_initial_subset(self):
        view = ClusterView(8, initial=[0, 1])
        assert view.members() == [0, 1]
        assert view.n_live == 2

    def test_empty_initial_rejected(self):
        with pytest.raises(MembershipError):
            ClusterView(4, initial=[])

    def test_initial_outside_pool_rejected(self):
        with pytest.raises(MembershipError, match="outside the pool"):
            ClusterView(4, initial=[0, 7])

    def test_join_bumps_epoch_and_sorts_members(self):
        view = ClusterView(4, initial=[1, 3])
        rec = view.join(0, time=0.5)
        assert view.epoch == 1 and rec.epoch == 1
        assert rec.cause == "join" and rec.members == (0, 1, 3)
        assert view.members() == [0, 1, 3]

    def test_duplicate_join_rejected(self):
        view = ClusterView(4, initial=[1])
        with pytest.raises(MembershipError, match="already a member"):
            view.join(1, time=0.1)

    def test_join_outside_pool_rejected(self):
        view = ClusterView(4, initial=[1])
        with pytest.raises(MembershipError, match="outside the pool"):
            view.join(4, time=0.1)

    def test_drain_removes_member(self):
        view = ClusterView(4)
        rec = view.drain(2, time=0.2)
        assert rec.cause == "drain" and rec.members == (0, 1, 3)

    def test_drain_refuses_to_empty_cluster(self):
        view = ClusterView(4, initial=[2])
        with pytest.raises(MembershipError, match="empty"):
            view.drain(2, time=0.2)

    def test_drain_non_member_rejected(self):
        view = ClusterView(4, initial=[0, 1])
        with pytest.raises(MembershipError, match="not a member"):
            view.drain(3, time=0.2)

    def test_leave_is_tolerant_and_may_empty(self):
        view = ClusterView(4, initial=[0])
        assert view.leave(3, time=0.1) is None  # absent: no epoch bump
        assert view.epoch == 0
        rec = view.leave(0, time=0.2)  # kills may empty the live set
        assert rec.cause == "rank-kill" and rec.members == ()
        assert view.n_live == 0

    def test_history_interleaves_causes(self):
        view = ClusterView(4, initial=[0, 1])
        view.join(2, time=0.1)
        view.leave(1, time=0.2)
        view.drain(2, time=0.3)
        assert [r.cause for r in view.history] == [
            "start", "join", "rank-kill", "drain",
        ]


class TestEpochRecord:
    def test_unknown_cause_rejected(self):
        with pytest.raises(MembershipError, match="unknown epoch cause"):
            EpochRecord(epoch=1, time=0.0, cause="meteor", members=(0,))

    def test_dict_round_trip(self):
        rec = EpochRecord(
            epoch=3, time=0.125, cause="autoscale-up", members=(0, 1, 2),
            detail="scale up: queue_depth=9",
        )
        assert EpochRecord.from_dict(rec.to_dict()) == rec


class TestMembershipSchedule:
    def test_orders_by_time_then_insertion(self):
        sched = MembershipSchedule([
            MembershipEvent(time=0.2, action="drain", node=1),
            MembershipEvent(time=0.1, action="join", node=2),
            MembershipEvent(time=0.1, action="join", node=3),
        ])
        due = sched.pop_due(0.15)
        assert [(e.node, e.action) for e in due] == [(2, "join"), (3, "join")]
        assert len(sched) == 1 and not sched.has_due(0.15)
        assert sched.has_due(0.2)

    def test_unknown_action_rejected(self):
        with pytest.raises(MembershipError, match="unknown membership action"):
            MembershipEvent(time=0.1, action="explode", node=1)


class TestElasticState:
    def _state(self, initial=(0, 1), pool=4, events=()):
        return ElasticState(
            ClusterView(pool, initial=initial),
            MembershipSchedule(events),
        )

    def test_should_reconfigure_on_due_event(self):
        state = self._state(
            events=[MembershipEvent(time=0.1, action="join", node=2)]
        )
        assert not state.should_reconfigure(0.05, None, set(), iteration=3)
        assert state.should_reconfigure(0.1, None, set(), iteration=3)

    def test_apply_due_skips_join_of_dead_node(self):
        state = self._state(events=[
            MembershipEvent(time=0.1, action="join", node=2),
            MembershipEvent(time=0.1, action="join", node=3),
        ])
        applied = state.apply_due(0.1, dead_nodes={2})
        assert [rec.members for _, rec in applied] == [(0, 1, 3)]
        assert len(state.skipped) == 1
        event, reason = state.skipped[0]
        assert event.node == 2 and "dead" in reason

    def test_apply_due_skips_drain_to_empty(self):
        state = self._state(initial=(0,), events=[
            MembershipEvent(time=0.1, action="drain", node=0),
        ])
        assert state.apply_due(0.1, set()) == []
        assert state.view.members() == [0]
        assert "empty" in state.skipped[0][1]

    def test_epoch_budget_aborts_runaway_loops(self):
        state = self._state()
        state.view.epoch = MAX_EPOCHS + 1
        with pytest.raises(RuntimeError, match="epoch count exceeded"):
            state.check_epoch_budget()


def _bank(**metric_samples):
    """Build a SeriesBank from ``name=[(t, v), ...]`` kwargs (metric
    constants passed via a dict to keep the call sites readable)."""
    bank = SeriesBank()
    for name, samples in metric_samples.items():
        series = bank.get_or_create(name, ())
        for t, v in samples:
            series.append(t, v)
    return bank


class TestAutoscaler:
    IDLE = [(0.001 * i, 0.1) for i in range(1, 11)]
    BUSY = [(0.001 * i, 0.9) for i in range(1, 11)]
    DEEP_QUEUE = [(0.001 * i, 12.0) for i in range(1, 11)]
    COLD_LINK = [(0.001 * i, 0.2) for i in range(1, 11)]
    HOT_LINK = [(0.001 * i, 0.95) for i in range(1, 11)]

    def _scaler(self, pool=4, **knobs):
        return Autoscaler(AutoscalePolicy(**knobs), pool_size=pool)

    def test_warmup_gates_first_iterations(self):
        scaler = self._scaler(warmup_iterations=3)
        bank = _bank(**{POLICY_QUEUE_DEPTH_CURRENT: self.DEEP_QUEUE})
        view = ClusterView(4, initial=[0, 1])
        assert scaler.evaluate(bank, 0.01, view, set(), iteration=2) is None
        assert scaler.evaluate(bank, 0.01, view, set(), iteration=3) is not None

    def test_scale_up_picks_lowest_free_node_and_carries_signals(self):
        scaler = self._scaler()
        bank = _bank(**{
            POLICY_QUEUE_DEPTH_CURRENT: self.DEEP_QUEUE,
            LINK_UTILIZATION: self.COLD_LINK,
        })
        view = ClusterView(4, initial=[0, 3])
        decision = scaler.evaluate(bank, 0.01, view, {1}, iteration=5)
        assert decision is not None and decision.action == "up"
        assert decision.node == 2  # 1 is dead, 0/3 are live
        assert decision.inputs["queue_depth"] == 12.0
        assert "queue_depth" in decision.reason

    def test_hot_link_vetoes_scale_up(self):
        scaler = self._scaler()
        bank = _bank(**{
            POLICY_QUEUE_DEPTH_CURRENT: self.DEEP_QUEUE,
            LINK_UTILIZATION: self.HOT_LINK,
        })
        view = ClusterView(4, initial=[0, 1])
        assert scaler.evaluate(bank, 0.01, view, set(), iteration=5) is None

    def test_scale_down_drains_highest_live_rank(self):
        scaler = self._scaler(min_nodes=2)
        bank = _bank(**{DEVICE_BUSY_FRACTION: self.IDLE})
        view = ClusterView(4, initial=[0, 1, 3])
        decision = scaler.evaluate(bank, 0.01, view, set(), iteration=5)
        assert decision is not None and decision.action == "down"
        assert decision.node == 3
        assert decision.inputs["busy_fraction"] == pytest.approx(0.1)

    def test_min_nodes_gates_scale_down(self):
        scaler = self._scaler(min_nodes=2)
        bank = _bank(**{DEVICE_BUSY_FRACTION: self.IDLE})
        view = ClusterView(4, initial=[0, 1])
        assert scaler.evaluate(bank, 0.01, view, set(), iteration=5) is None

    def test_cooldown_spaces_decisions(self):
        scaler = self._scaler(min_nodes=1, cooldown_s=0.05)
        bank = _bank(**{DEVICE_BUSY_FRACTION: self.IDLE})
        view = ClusterView(4, initial=[0, 1, 2])
        assert scaler.evaluate(bank, 0.01, view, set(), iteration=5)
        assert scaler.evaluate(bank, 0.02, view, set(), iteration=6) is None
        bank.get_or_create(DEVICE_BUSY_FRACTION, ()).append(0.07, 0.1)
        assert scaler.evaluate(bank, 0.07, view, set(), iteration=7)

    def test_busy_cluster_makes_no_decision(self):
        scaler = self._scaler()
        bank = _bank(**{DEVICE_BUSY_FRACTION: self.BUSY})
        view = ClusterView(4, initial=[0, 1])
        assert scaler.evaluate(bank, 0.01, view, set(), iteration=5) is None

    def test_policy_coerce_forms(self):
        assert AutoscalePolicy.coerce(True) == AutoscalePolicy()
        assert AutoscalePolicy.coerce({"min_nodes": 2}).min_nodes == 2
        policy = AutoscalePolicy(max_nodes=6)
        assert AutoscalePolicy.coerce(policy) is policy
        with pytest.raises(ValueError, match="autoscale must be"):
            AutoscalePolicy.coerce("yes")

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_nodes"):
            AutoscalePolicy(min_nodes=4, max_nodes=2)


# ---------------------------------------------------------------------------
# Elastic driver end to end
# ---------------------------------------------------------------------------

POOL = 4


def _points():
    pts, _, _ = gaussian_mixture(2000, 6, 3, seed=5)
    return pts


def _gmm(iterations=4):
    from repro.apps.gmm import GMMApp

    return GMMApp(_points(), 3, seed=6, max_iterations=iterations)


def _run(app, faults=None, **kwargs):
    config = JobConfig(faults=faults, **kwargs)
    return PRSRuntime(delta_cluster(n_nodes=POOL), config).run(app)


def _canonical_output(result):
    return sorted(result.output.items(), key=lambda kv: repr(kv[0]))


class TestElasticDriver:
    def test_join_mid_run_is_bitwise_identical(self):
        clean_app = _gmm()
        clean = _run(clean_app, initial_nodes=2)
        walk_app = _gmm()
        walk = _run(
            walk_app,
            faults=["join@2:t=0.03", "join@3:t=0.03"],
            initial_nodes=2,
        )

        rec = walk.recovery
        assert rec.joins == 2 and rec.drains == 0
        assert rec.rank_restarts == 0  # joins are planned, not failures
        sizes = [len(e.members) for e in rec.epochs]
        assert sizes[0] == 2 and sizes[-1] == 4
        assert walk.iterations == clean.iterations
        np.testing.assert_array_equal(clean_app.weights, walk_app.weights)
        np.testing.assert_array_equal(clean_app.means, walk_app.means)
        np.testing.assert_array_equal(
            clean_app.covariances, walk_app.covariances
        )
        assert repr(_canonical_output(walk)) == repr(_canonical_output(clean))

    def test_drain_is_planned_and_loss_free(self):
        clean_app = _gmm()
        clean = _run(clean_app, initial_nodes=4)
        drained_app = _gmm()
        drained = _run(drained_app, faults=["drain@3:t=0.03"], initial_nodes=4)

        rec = drained.recovery
        assert rec.drains == 1 and rec.rank_restarts == 0
        assert rec.dead_nodes == ()  # drain is not a death
        assert [e.cause for e in rec.epochs] == ["start", "drain"]
        assert len(rec.epochs[-1].members) == 3
        np.testing.assert_array_equal(clean_app.means, drained_app.means)
        assert repr(_canonical_output(drained)) == repr(
            _canonical_output(clean)
        )

    def test_autoscale_decisions_reach_the_audit_log(self):
        # An over-provisioned 4-rank run with an aggressive scale-down
        # threshold must shrink, and every decision must land in the
        # audit log with the metric values that triggered it.
        app = _gmm(iterations=6)
        result = _run(
            app,
            initial_nodes=4,
            autoscale={
                "min_nodes": 2,
                "scale_down_busy_fraction": 1.1,
                "cooldown_s": 1e-3,
            },
        )
        rec = result.recovery
        assert rec.autoscale_decisions >= 1
        assert any(e.cause == "autoscale-down" for e in rec.epochs)
        assert len(rec.epochs[-1].members) < 4

        decisions = [
            r
            for r in result.trace.audit.records
            if r.kind in ("autoscale-up", "autoscale-down")
        ]
        assert len(decisions) == rec.autoscale_decisions
        for record in decisions:
            assert "busy_fraction" in record.inputs  # the trigger
            assert "time" in record.inputs
            assert record.outputs["members_before"]

    def test_autoscale_requires_sampling(self):
        with pytest.raises(ValueError, match="sample_interval"):
            JobConfig(autoscale=True, sample_interval=None)

    def test_elastic_requires_iterative_app(self):
        from repro.apps.gemv import GemvApp
        from repro.data.synth import random_matrix, random_vector

        app = GemvApp(
            random_matrix(512, 64, seed=1), random_vector(64, seed=2)
        )
        with pytest.raises(ValueError, match="IterativeMapReduceApp"):
            _run(app, initial_nodes=2)

    def test_membership_spans_and_metrics_emitted(self):
        from repro.obs.analyze import membership_from_tracer

        result = _run(_gmm(), faults=["join@2:t=0.03"], initial_nodes=2)
        timeline = membership_from_tracer(result.trace.tracer)
        assert [m["cause"] for m in timeline] == ["join"]
        assert timeline[0]["members"] == "0,1,2"
        counter = result.trace.metrics.get("prs_membership_events_total")
        assert counter is not None and counter.value(action="join") == 1

    def test_membership_track_is_not_a_device(self):
        # Membership transitions get their own span track; the imbalance
        # report counts device activity only, so that track must never
        # show up as a device load.
        result = _run(
            _gmm(), faults=["join@2:t=0.03", "join@3:t=0.03"], initial_nodes=2
        )
        assert result.trace.tracer.find(category="membership")
        devices = [d.device for d in result.analyze().imbalance.devices]
        assert devices and "membership" not in devices
        assert "membership" not in result.trace.devices()

    def test_recovery_summary_round_trips_membership(self):
        result = _run(
            _gmm(),
            faults=["join@2:t=0.03", "drain@2:t=0.05"],
            initial_nodes=2,
        )
        rec = result.recovery
        assert rec.joins == 1 and rec.drains == 1
        assert len(rec.epochs) == 3
        restored = RecoverySummary.from_dict(rec.to_dict())
        assert restored == rec
        assert restored.epochs[1].cause == "join"
        # and the payload is JSON-clean
        import json

        assert json.loads(json.dumps(rec.to_dict()))["joins"] == 1


class TestAutoscaleCLIParsing:
    def test_parse_autoscale_forms(self):
        from repro.cli import _parse_autoscale

        assert _parse_autoscale(None) is None
        assert _parse_autoscale([""]) is True
        knobs = _parse_autoscale(["min_nodes=2", "scale_up_imbalance=3.5"])
        assert knobs == {"min_nodes": 2, "scale_up_imbalance": 3.5}
        assert isinstance(knobs["min_nodes"], int)

    @pytest.mark.parametrize("bad", [["min_nodes"], ["min_nodes=lots"]])
    def test_parse_autoscale_rejects_malformed(self, bad):
        from repro.cli import _parse_autoscale

        with pytest.raises(SystemExit, match="--autoscale"):
            _parse_autoscale(bad)
