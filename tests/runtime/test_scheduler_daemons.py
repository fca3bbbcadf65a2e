"""Unit tests for the sub-task scheduler and device daemons."""

import pytest

from repro.core.intensity import ConstantIntensity
from repro.runtime.api import Block
from repro.runtime.daemons import CpuDaemon, GpuDaemon, NodeResources, run_map_block
from repro.runtime.job import JobConfig, Overheads, Scheduling
from repro.runtime.scheduler import SubTaskScheduler
from repro.simulate.engine import Engine
from repro.simulate.trace import Trace

from tests.helpers import CountdownApp, ModSumApp

QUIET = Overheads(0.0, 0.0, 0.0, 0.0)
QUIET_CONFIG = JobConfig(overheads=QUIET)


def make_rig(delta, app, config=None):
    engine = Engine()
    trace = Trace()
    res = NodeResources(engine, delta, n_gpus=1)
    config = config if config is not None else JobConfig(overheads=QUIET)
    sched = SubTaskScheduler(res, app, config, trace)
    return engine, trace, res, sched


class TestCpuDaemon:
    def test_block_seconds_formula(self, delta):
        app = ModSumApp(n=1000, intensity=100.0)  # above A_cr: peak-bound
        engine = Engine()
        daemon = CpuDaemon(NodeResources(engine, delta), app, QUIET_CONFIG, Trace())
        block = Block(0, 100)  # 800 bytes, 80k flops
        per_core = delta.cpu.peak_gflops / delta.cpu.cores
        expected = app.map_flops(block) / (per_core * 1e9)
        assert daemon.block_seconds(block) == pytest.approx(expected)

    def test_bandwidth_bound_block(self, delta):
        app = ModSumApp(n=1000, intensity=1.0)  # below A_cr
        engine = Engine()
        daemon = CpuDaemon(NodeResources(engine, delta), app, QUIET_CONFIG, Trace())
        block = Block(0, 100)
        per_core = delta.cpu.attainable_gflops(1.0) / delta.cpu.cores
        assert daemon.block_seconds(block) == pytest.approx(
            app.map_flops(block) / (per_core * 1e9)
        )

    def test_map_blocks_fill_core_pool(self, delta):
        app = ModSumApp(n=24_000, intensity=100.0)
        engine = Engine()
        res = NodeResources(engine, delta)
        daemon = CpuDaemon(res, app, QUIET_CONFIG, Trace())
        sink = []
        blocks = Block(0, 24_000).split(24)  # 2 waves on 12 cores
        proc = engine.process(daemon.run_map_blocks(blocks, sink))
        engine.run(proc)
        one = daemon.block_seconds(blocks[0])
        assert engine.now == pytest.approx(2 * one, rel=1e-6)

    def test_reduce_collects_all_keys(self, delta):
        app = ModSumApp(n=100)
        engine = Engine()
        daemon = CpuDaemon(NodeResources(engine, delta), app, QUIET_CONFIG, Trace())
        sink = {}
        proc = engine.process(
            daemon.run_reduce({"a": [1, 2], "b": [3]}, sink)
        )
        engine.run(proc)
        assert sink == {"a": 3, "b": 3}


class TestGpuDaemon:
    def test_kernel_seconds_uses_resident_roofline(self, delta):
        app = ModSumApp(n=1000, intensity=500.0)
        engine = Engine()
        daemon = GpuDaemon(NodeResources(engine, delta), 0, app, QUIET_CONFIG, Trace())
        block = Block(0, 500)
        rate = delta.gpu.attainable_gflops(500.0, staged=False)
        assert daemon.kernel_seconds(block) == pytest.approx(
            app.map_flops(block) / (rate * 1e9)
        )

    def test_non_iterative_app_always_staged(self, delta):
        app = ModSumApp(n=1000)
        engine = Engine()
        daemon = GpuDaemon(NodeResources(engine, delta), 0, app, QUIET_CONFIG, Trace())
        block = Block(0, 100)
        assert not daemon.is_cached(block)
        sink = []
        engine.run(engine.process(run_map_block(daemon, block, sink)))
        assert not daemon.is_cached(block)  # iterative=False: never cached

    def test_iterative_block_cached_after_first_pass(self, delta):
        app = CountdownApp(n=1000)
        engine = Engine()
        daemon = GpuDaemon(NodeResources(engine, delta), 0, app, QUIET_CONFIG, Trace())
        block = Block(0, 100)
        sink = []
        engine.run(engine.process(run_map_block(daemon, block, sink)))
        assert daemon.is_cached(block)
        # A different span is not covered by the cache.
        assert not daemon.is_cached(Block(100, 200))

    def test_gpu_index_bounds(self, delta):
        engine = Engine()
        res = NodeResources(engine, delta, n_gpus=1)
        with pytest.raises(ValueError, match="GPU engines"):
            GpuDaemon(res, 3, ModSumApp(), QUIET_CONFIG, Trace())

    def test_gpu_reduce(self, delta):
        app = ModSumApp(n=100)
        engine = Engine()
        daemon = GpuDaemon(NodeResources(engine, delta), 0, app, QUIET_CONFIG, Trace())
        sink = {}
        engine.run(engine.process(daemon.run_reduce({"k": [5, 6]}, sink)))
        assert sink == {"k": 11}


class TestSubTaskScheduler:
    def test_device_weights_cpu_only(self, delta):
        app = ModSumApp()
        _, _, _, sched = make_rig(
            delta, app, JobConfig(use_gpu=False, overheads=QUIET)
        )
        assert sched.device_weights() == [1.0]

    def test_device_weights_gpu_only_single(self, delta):
        app = ModSumApp()
        _, _, _, sched = make_rig(
            delta, app, JobConfig(use_cpu=False, overheads=QUIET)
        )
        assert sched.device_weights() == [1.0]

    def test_device_weights_both_sum_to_one(self, delta):
        app = ModSumApp(intensity=50.0)
        _, _, _, sched = make_rig(delta, app)
        weights = sched.device_weights()
        assert len(weights) == 2
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] == pytest.approx(sched.split_decision.p)

    def test_two_gpus_share_equally(self, delta_two_gpus):
        app = ModSumApp(intensity=500.0)
        engine = Engine()
        res = NodeResources(engine, delta_two_gpus, n_gpus=2)
        sched = SubTaskScheduler(
            res, app, JobConfig(gpus_per_node=2, overheads=QUIET), Trace()
        )
        weights = sched.device_weights()
        assert len(weights) == 3
        assert weights[1] == pytest.approx(weights[2])
        assert sum(weights) == pytest.approx(1.0)

    def test_static_map_produces_all_pairs(self, delta):
        app = ModSumApp(n=3000, n_keys=3)
        engine, _, _, sched = make_rig(delta, app)
        sink = []
        engine.run(engine.process(sched.run_map_partition(Block(0, 3000), sink)))
        from repro.runtime.shuffle import group_by_key

        groups = group_by_key(sink)
        merged = {k: sum(v) for k, v in groups.items()}
        assert merged == app.expected_output()

    def test_dynamic_map_produces_all_pairs(self, delta):
        app = ModSumApp(n=3000, n_keys=3)
        engine, _, _, sched = make_rig(
            delta, app,
            JobConfig(scheduling=Scheduling.DYNAMIC, overheads=QUIET),
        )
        sink = []
        engine.run(engine.process(sched.run_map_partition(Block(0, 3000), sink)))
        from repro.runtime.shuffle import group_by_key

        merged = {k: sum(v) for k, v in group_by_key(sink).items()}
        assert merged == app.expected_output()

    def test_empty_partition_is_noop(self, delta):
        app = ModSumApp(n=100)
        engine, _, _, sched = make_rig(delta, app)
        sink = []
        engine.run(engine.process(sched.run_map_partition(Block(5, 5), sink)))
        assert sink == []
        assert engine.now == 0.0

    def test_forced_fraction_propagates(self, delta):
        app = ModSumApp(intensity=50.0)
        _, _, _, sched = make_rig(
            delta, app, JobConfig(force_cpu_fraction=0.3, overheads=QUIET)
        )
        assert sched.split_decision.p == 0.3
        assert sched.device_weights()[0] == pytest.approx(0.3)

    def test_reduce_routes_to_cpu_when_engaged(self, delta):
        app = ModSumApp()
        engine, trace, _, sched = make_rig(delta, app)
        sink = {}
        engine.run(engine.process(sched.run_reduce({"k": [1, 2]}, sink)))
        assert sink == {"k": 3}
        assert trace.filter(kind="reduce")  # ran on the CPU daemon

    def test_reduce_routes_to_gpu_when_cpu_off(self, delta):
        app = ModSumApp()
        engine, trace, _, sched = make_rig(
            delta, app, JobConfig(use_cpu=False, overheads=QUIET)
        )
        sink = {}
        engine.run(engine.process(sched.run_reduce({"k": [1, 2]}, sink)))
        assert sink == {"k": 3}
        assert any("gpu" in r.track for r in trace.records)
