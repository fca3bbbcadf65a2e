"""Unit + integration tests for the time-series sampler.

Three layers:

* :class:`Series` / :class:`SeriesBank` ring-buffer and aggregator
  semantics on hand-built data;
* :class:`MetricSampler` grid mechanics driven through a bare
  :class:`Trace` (no simulation) — back-fill, pre-mutation snapshots,
  the end anchor, derived probes;
* whole-runtime invariants: sampling must not perturb the schedule
  (bitwise-identical makespans/spans/outputs), sample times must stay
  monotone across rank-restart incarnations, and a fixed fault seed
  must reproduce the exact series and alerts.
"""

from __future__ import annotations

import pytest

from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.obs.metrics import (
    COMM_BYTES,
    COMM_MESSAGES,
    DEVICE_BUSY_UNION_SECONDS,
    _label_key,
)
from repro.obs.timeseries import (
    DEVICE_BUSY_FRACTION,
    DEVICE_IMBALANCE,
    LINK_MODEL_RATIO,
    LINK_UTILIZATION,
    MetricSampler,
    Series,
    SeriesBank,
)
from repro.simulate.trace import Trace

from tests.helpers import phase_rows


def run_cmeans(n_nodes=2, sample_interval=1e-3, faults=None, fault_seed=0,
               **config_kwargs):
    from repro.apps.cmeans import CMeansApp
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    pts, _, _ = gaussian_mixture(600, 8, 4, seed=3)
    app = CMeansApp(pts, 4, seed=3, max_iterations=3, epsilon=1e-12)
    config = JobConfig(sample_interval=sample_interval, faults=faults,
                       fault_seed=fault_seed, **config_kwargs)
    return PRSRuntime(delta_cluster(n_nodes), config).run(app)


class TestSeries:
    def test_append_rejects_time_regression(self):
        s = Series("s")
        s.append(1.0, 10.0)
        with pytest.raises(ValueError, match="precedes"):
            s.append(0.5, 11.0)

    def test_equal_timestamps_allowed(self):
        s = Series("s")
        s.append(1.0, 10.0)
        s.append(1.0, 11.0)  # the off-grid end anchor can coincide
        assert len(s) == 2

    def test_ring_drops_oldest(self):
        s = Series("s", capacity=3)
        for i in range(5):
            s.append(float(i), float(i) * 10)
        assert s.dropped == 2
        assert s.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity"):
            Series("s", capacity=1)

    def test_window_is_inclusive_both_ends(self):
        s = Series("s")
        for t in (0.0, 1.0, 2.0, 3.0):
            s.append(t, t)
        assert [t for t, _ in s.window(1.0, 2.0)] == [1.0, 2.0]

    def test_value_is_latest_at_or_before(self):
        s = Series("s")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert s.value(0.5) is None
        assert s.value(1.5) == 10.0
        assert s.value(2.0) == 20.0

    def test_increase_and_rate(self):
        s = Series("s")
        s.append(0.0, 100.0)
        s.append(2.0, 106.0)
        assert s.increase(0.0, 2.0) == pytest.approx(6.0)
        assert s.rate(0.0, 2.0) == pytest.approx(3.0)
        assert s.rate(0.0, 0.5) is None  # single sample in window

    def test_mean_max_min(self):
        s = Series("s")
        for t, v in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            s.append(t, v)
        assert s.mean(0.0, 2.0) == pytest.approx(2.0)
        assert s.vmax(0.0, 2.0) == 3.0
        assert s.vmin(0.0, 2.0) == 1.0
        assert s.mean(5.0, 6.0) is None

    def test_quantile_interpolates(self):
        s = Series("s")
        for t, v in enumerate((10.0, 20.0, 30.0, 40.0)):
            s.append(float(t), v)
        assert s.quantile(0.5, 0.0, 3.0) == pytest.approx(25.0)
        assert s.quantile(0.0, 0.0, 3.0) == 10.0
        assert s.quantile(1.0, 0.0, 3.0) == 40.0

    def test_quantile_single_sample_and_empty(self):
        s = Series("s")
        assert s.quantile(0.9, 0.0, 1.0) is None
        s.append(0.5, 7.0)
        assert s.quantile(0.99, 0.0, 1.0) == 7.0

    def test_quantile_range_checked(self):
        s = Series("s")
        with pytest.raises(ValueError, match="quantile"):
            s.quantile(1.5, 0.0, 1.0)


class TestSeriesBank:
    def test_matching_selects_label_subsets_sorted(self):
        bank = SeriesBank()
        bank.get_or_create("m", _label_key({"link": "remote", "x": "1"}))
        bank.get_or_create("m", _label_key({"link": "local"}))
        bank.get_or_create("other", _label_key({"link": "remote"}))
        got = bank.matching("m", {"link": "remote"})
        assert [s.labels for s in got] == [{"link": "remote", "x": "1"}]
        assert len(bank.matching("m")) == 2

    def test_jsonl_round_trip(self):
        import json

        bank = SeriesBank()
        s = bank.get_or_create("m", _label_key({"a": "b"}))
        s.append(0.0, 1.0)
        s.append(1.0, 2.5)
        lines = bank.to_jsonl_lines()
        rebuilt = SeriesBank.from_dicts([json.loads(x) for x in lines])
        assert rebuilt.to_jsonl_lines() == lines
        assert rebuilt.get("m", a="b").points() == [(0.0, 1.0), (1.0, 2.5)]

    def test_names_and_total_points(self):
        bank = SeriesBank()
        bank.get_or_create("b", ()).append(0.0, 1.0)
        bank.get_or_create("a", ()).append(0.0, 1.0)
        assert bank.names() == ["a", "b"]
        assert bank.total_points == 2


class TestSamplerGrid:
    def make(self, interval=1e-3):
        trace = Trace()
        sampler = trace.attach_sampler(MetricSampler(interval=interval))
        return trace, sampler

    def test_interval_validated(self):
        with pytest.raises(ValueError, match="interval"):
            MetricSampler(interval=0.0)

    def test_backfills_every_grid_instant(self):
        trace, sampler = self.make(interval=1e-3)
        trace.metrics.counter("c_total").inc(1)
        trace.tick(0.0)  # grid 0
        trace.tick(5.5e-3)  # grids 1..5 back-filled in one tick
        series = sampler.bank.get("c_total")
        assert [t for t, _ in series.points()] == pytest.approx(
            [0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3]
        )

    def test_snapshot_reflects_pre_mutation_state(self):
        # The tick happens *before* the mutation, so the sample at a
        # grid instant must not see updates applied at or after it.
        trace, sampler = self.make(interval=1e-3)
        counter = trace.metrics.counter("c_total")
        counter.inc(1)
        trace.tick(0.0)
        trace.tick(1e-3)  # grid instant 1e-3 sampled pre-mutation
        counter.inc(100)  # the mutation dated 1e-3
        trace.tick(2e-3)
        series = sampler.bank.get("c_total")
        assert series.points() == [(0.0, 1.0), (1e-3, 1.0), (2e-3, 101.0)]

    def test_finalize_adds_end_anchor_and_freezes(self):
        trace, sampler = self.make(interval=1e-3)
        trace.metrics.counter("c_total").inc(1)
        trace.tick(0.0)
        sampler.finalize(2.5e-3)
        series = sampler.bank.get("c_total")
        assert [t for t, _ in series.points()] == pytest.approx(
            [0.0, 1e-3, 2e-3, 2.5e-3]
        )
        assert sampler.finalized
        before = sampler.total_samples
        trace.tick(5e-3)  # ignored after finalize
        assert sampler.total_samples == before

    def test_busy_fraction_and_imbalance_derived(self):
        trace, sampler = self.make(interval=1e-3)
        busy = trace.metrics.counter(DEVICE_BUSY_UNION_SECONDS)
        trace.tick(0.0)
        # device cpu busy the whole 1 ms, gpu idle
        busy.inc(1e-3, device="n0.cpu")
        busy.inc(0.0, device="n0.gpu")
        trace.tick(1e-3 + 1e-9)
        frac = sampler.bank.get(DEVICE_BUSY_FRACTION, device="n0.cpu")
        assert frac.points()[-1][1] == pytest.approx(1.0, rel=1e-3)
        imb = sampler.bank.get(DEVICE_IMBALANCE)
        # one busy + one idle device: max/mean = 1.0/0.5 = 2.0
        assert imb.points()[-1][1] == pytest.approx(2.0, rel=1e-3)

    def test_link_model_ratio_tracks_observed_over_modelled(self):
        trace, sampler = self.make(interval=1e-3)
        sampler.register_link_model("remote", latency_s=1e-5,
                                    bytes_per_s=1e9)
        msgs = trace.metrics.counter(COMM_MESSAGES)
        nbytes = trace.metrics.counter(COMM_BYTES)
        busy = trace.metrics.counter("prs_device_busy_seconds_total")
        trace.tick(0.0)
        # 10 messages of 1e5 B: modelled = 10*1e-5 + 1e6/1e9 = 1.1e-3 s;
        # the NIC reports 3x that -> ratio 3.
        msgs.inc(10, src="r0", dst="r1", tag="data", link="remote")
        nbytes.inc(1e6, src="r0", dst="r1", tag="data", link="remote")
        busy.inc(3.3e-3, device="net.r1", kind="net")
        trace.tick(1e-3 + 1e-9)
        util = sampler.bank.get(LINK_UTILIZATION, link="remote")
        assert util.points()[-1][1] == pytest.approx(1.1, rel=1e-3)
        ratio = sampler.bank.get(LINK_MODEL_RATIO, link="remote")
        assert ratio.points()[-1][1] == pytest.approx(3.0, rel=1e-6)

    def test_link_model_validation(self):
        sampler = MetricSampler()
        with pytest.raises(ValueError, match="bandwidth"):
            sampler.register_link_model("x", latency_s=1e-6, bytes_per_s=0.0)


class TestZeroPerturbation:
    def test_sampled_run_is_bitwise_identical(self):
        sampled = run_cmeans(sample_interval=1e-3)
        bare = run_cmeans(sample_interval=None)
        assert sampled.makespan == bare.makespan
        assert sampled.engine_events == bare.engine_events
        assert sampled.sampler_samples > 0 and bare.sampler_samples == 0
        assert phase_rows(sampled.trace) == phase_rows(bare.trace)
        assert sorted(map(str, sampled.output.items())) == sorted(
            map(str, bare.output.items()))

    def test_profile_checks_pass_with_alert_spans(self):
        from repro import obs

        result = run_cmeans()
        assert obs.check_profile(result.trace, result.makespan) == []
        assert result.analyze().check() == []


class TestSamplingUnderFaults:
    def test_sample_times_monotone_across_rank_restart(self):
        result = run_cmeans(n_nodes=2, faults="rank_kill@1:t=5e-3",
                            fault_seed=7)
        assert result.recovery is not None
        assert result.recovery.rank_restarts >= 1
        bank = result.trace.sampler.bank
        assert bank.total_points > 0
        for series in bank:
            times = [t for t, _ in series.points()]
            assert times == sorted(times), series.name

    def test_retry_counter_sampled_under_gpu_kill(self):
        result = run_cmeans(faults="gpu_kill@0:t=5e-3", fault_seed=7)
        assert result.recovery.blocks_retried > 0
        series = result.trace.sampler.bank.matching(
            "prs_recovery_blocks_retried_total")
        assert series and series[0].points()[-1][1] > 0

    def test_fault_seed_determinism_of_series_and_alerts(self):
        a = run_cmeans(faults="gpu_kill@0:t=1e-3~9e-3", fault_seed=11)
        b = run_cmeans(faults="gpu_kill@0:t=1e-3~9e-3", fault_seed=11)
        assert (a.trace.sampler.bank.to_jsonl_lines()
                == b.trace.sampler.bank.to_jsonl_lines())
        assert ([al.to_dict() for al in a.alerts]
                == [al.to_dict() for al in b.alerts])

    def test_different_fault_seed_moves_the_series(self):
        # A ranged net_slow factor scales simulated wire time directly,
        # so different seeds must yield visibly different sampled
        # histories (a kill-time range can quantize to the same block
        # boundary; a bandwidth factor cannot hide).
        spec = "net_slow@*:factor=2~5,t0=0,t1=1"
        a = run_cmeans(faults=spec, fault_seed=11)
        c = run_cmeans(faults=spec, fault_seed=12)
        assert (a.trace.sampler.bank.to_jsonl_lines()
                != c.trace.sampler.bank.to_jsonl_lines())
