"""Tests for the cycle-accurate simulator."""

from __future__ import annotations

import math

import pytest

from repro.arch.config import AcceleratorConfig, BranchConfig, StageConfig
from repro.construction.reorg import build_pipeline_plan
from repro.devices.budget import ResourceBudget
from repro.ir.builder import GraphBuilder
from repro.ir.layer import BiasMode, TensorShape
from repro.dse.inbranch import optimize_branch
from repro.perf.analytical import stage_latency_cycles
from repro.perf.estimator import evaluate
from repro.quant.schemes import INT8
from repro.sim.dram import DramChannel
from repro.sim.pipeline import PipelineSimulator
from repro.sim.runner import frame_latency_profile, simulate
from repro.sim.stage import ROW_OVERHEAD_CYCLES
from tests.conftest import make_chain, make_tiny_decoder


def chain_setup(depth=3, channels=8, size=16):
    graph = make_chain(depth=depth, channels=channels, size=size)
    plan = build_pipeline_plan(graph)
    config = AcceleratorConfig.uniform(plan)
    return plan, config


class TestDramChannel:
    def test_bytes_per_cycle(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0, efficiency=1.0)
        assert dram.bytes_per_cycle == pytest.approx(64.0)

    def test_flow_serialization(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0, efficiency=1.0)
        dram.register_flows({"a": 100.0, "b": 100.0})
        # Each flow owns half the channel: 32 B/cycle.
        t1 = dram.request("a", 64.0, 0.0)
        assert t1 == pytest.approx(2.0)
        t2 = dram.request("a", 64.0, 0.0)  # queued behind t1 on flow a
        assert t2 == pytest.approx(4.0)
        t3 = dram.request("b", 64.0, 0.0)  # independent flow
        assert t3 == pytest.approx(2.0)

    def test_zero_bytes_immediate(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0)
        assert dram.request("x", 0.0, 5.0) == 5.0

    def test_accounting(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0, efficiency=1.0)
        dram.register_flows({"a": 1.0})
        dram.request("a", 640.0, 0.0)
        assert dram.bytes_moved == 640.0
        assert dram.busy_cycles == pytest.approx(10.0)
        assert dram.requests == 1


class TestSingleStage:
    def test_steady_state_matches_eq4_plus_overhead(self):
        plan, config = chain_setup(depth=1)
        stage = plan.branches[0].stages[0].stage
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=10, warmup=2)
        expected_cycles = stage_latency_cycles(
            stage, StageConfig()
        ) + ROW_OVERHEAD_CYCLES * stage.conv_height
        expected_fps = 200e6 / expected_cycles
        assert report.fps == pytest.approx(expected_fps, rel=0.02)

    def test_sim_never_beats_analytical(self):
        plan, config = chain_setup(depth=1)
        analytical = evaluate(plan, config, INT8, 200.0)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=10, warmup=2)
        assert report.fps <= analytical.fps * 1.001


class TestPipelines:
    def test_chain_throughput_set_by_bottleneck(self):
        plan, config = chain_setup(depth=4)
        analytical = evaluate(plan, config, INT8, 200.0)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=12, warmup=3)
        assert report.fps == pytest.approx(analytical.fps, rel=0.05)

    def test_all_frames_complete(self):
        plan, config = chain_setup(depth=3)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        stats = simulator.run(frames=5)
        for stage_stats in stats.stages.values():
            assert stage_stats.frames_done == 5

    def test_end_to_end_slower_than_steady(self):
        plan, config = chain_setup(depth=4)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=8, warmup=2)
        assert report.end_to_end_fps < report.fps

    def test_more_frames_amortize_fill(self):
        plan, config = chain_setup(depth=4)
        short = simulate(plan, config, INT8, 12.8, 200.0, frames=4, warmup=1)
        long = simulate(plan, config, INT8, 12.8, 200.0, frames=24, warmup=4)
        assert long.end_to_end_fps > short.end_to_end_fps

    def test_h_partition_speeds_up_sim(self):
        plan, _ = chain_setup(depth=2, channels=4, size=32)
        slow_cfg = AcceleratorConfig.uniform(plan)
        stages = tuple(
            StageConfig(cpf=1, kpf=1, h=4) for _ in plan.branches[0].stages
        )
        fast_cfg = AcceleratorConfig(
            branches=(BranchConfig(batch_size=1, stages=stages),)
        )
        slow = simulate(plan, slow_cfg, INT8, 12.8, 200.0, frames=6, warmup=2)
        fast = simulate(plan, fast_cfg, INT8, 12.8, 200.0, frames=6, warmup=2)
        assert fast.fps > 2 * slow.fps


class TestMultiBranch:
    def test_decoder_like_network_completes(self):
        plan = build_pipeline_plan(make_tiny_decoder())
        config = AcceleratorConfig.uniform(plan)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=6, warmup=2)
        assert all(f > 0 for f in report.branch_fps)

    def test_fork_couples_branches(self):
        """The warp branch cannot outrun the shared front that feeds it."""
        plan = build_pipeline_plan(make_tiny_decoder())
        config = AcceleratorConfig.uniform(plan)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=8, warmup=2)
        big_fps, small_fps = report.branch_fps
        # The small branch alone would be much faster than the big one; the
        # shared producer caps it at the front-end's rate.
        assert small_fps <= big_fps * 1.05

    def test_replicas_scale_reported_fps(self):
        plan = build_pipeline_plan(make_tiny_decoder())
        base = AcceleratorConfig.uniform(plan)
        batched = AcceleratorConfig(
            branches=(
                base.branches[0],
                BranchConfig(batch_size=2, stages=base.branches[1].stages),
            )
        )
        one = simulate(plan, base, INT8, 12.8, 200.0, frames=6, warmup=2)
        two = simulate(plan, batched, INT8, 12.8, 200.0, frames=6, warmup=2)
        assert two.branch_fps[1] == pytest.approx(2 * one.branch_fps[1], rel=0.01)

    def test_real_decoder_optimized_config(self, decoder_plan):
        """DSE-optimized decoder config simulates without deadlock and
        lands near the analytical estimate on the compute-bound branches."""
        budget = ResourceBudget(compute=800, memory=900, bandwidth_gbps=12.8)
        configs = []
        for branch, batch in zip(decoder_plan.branches, (1, 1, 1)):
            sol = optimize_branch(
                branch, budget.scaled(0.33), batch, INT8
            )
            configs.append(sol.config)
        config = AcceleratorConfig(branches=tuple(configs))
        analytical = evaluate(decoder_plan, config, INT8, 200.0)
        report = simulate(plan=decoder_plan, config=config, quant=INT8,
                          bandwidth_gbps=12.8, frequency_mhz=200.0,
                          frames=6, warmup=2)
        # Branch 0 (geometry) is independent: steady state matches Eq. 5.
        assert report.branch_fps[0] == pytest.approx(
            analytical.branches[0].fps, rel=0.05
        )

    def test_efficiency_fields(self):
        plan, config = chain_setup(depth=3)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=8, warmup=2)
        assert 0 < report.efficiency <= 1.0
        assert 0 < report.steady_efficiency <= 1.0
        assert report.efficiency <= report.steady_efficiency * 1.001

    def test_stats_accounting(self):
        plan, config = chain_setup(depth=2)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        stats = simulator.run(frames=3)
        assert stats.total_cycles > 0
        for st in stats.stages.values():
            assert st.busy_cycles > 0
            assert st.steps_done == 3 * 16  # H=16 rows, h=1

    def test_invalid_frame_count(self):
        plan, config = chain_setup(depth=1)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        with pytest.raises(ValueError):
            simulator.run(frames=0)

    def test_run_is_single_use(self):
        """A second run would start from the first run's link credits and
        DRAM flow state, so it raises instead of returning skewed stats.
        Calls rejected for their arguments do not use the instance up."""
        plan, config = chain_setup(depth=2)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        with pytest.raises(ValueError):
            simulator.run(frames=0)
        with pytest.raises(TypeError):
            simulator.run(frames=2.5)
        stats = simulator.run(frames=3)
        fresh = PipelineSimulator(plan, config, INT8, 12.8, 200.0).run(frames=3)
        assert stats == fresh
        with pytest.raises(RuntimeError, match="single-use"):
            simulator.run(frames=3)


class TestInputValidation:
    def test_negative_warmup_profile(self):
        plan, config = chain_setup(depth=1)
        with pytest.raises(ValueError, match="warmup"):
            frame_latency_profile(plan, config, INT8, 12.8, frames=4, warmup=-1)

    def test_negative_warmup_simulate(self):
        plan, config = chain_setup(depth=1)
        with pytest.raises(ValueError, match="warmup"):
            simulate(plan, config, INT8, 12.8, frames=4, warmup=-5)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            DramChannel(bandwidth_gbps=bandwidth, frequency_mhz=200.0)

    def test_non_finite_frequency(self):
        plan, config = chain_setup(depth=1)
        with pytest.raises(ValueError, match="frequency"):
            simulate(plan, config, INT8, 12.8, frequency_mhz=math.nan, frames=4)

    @pytest.mark.parametrize("frames", [2.5, True, "3"])
    def test_frames_must_be_int(self, frames):
        plan, config = chain_setup(depth=1)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        with pytest.raises(TypeError, match="frames"):
            simulator.run(frames=frames)


def test_stage_waiting_only_for_its_weights_still_starts():
    """A stage whose resident weights load after its producer has filled
    the line buffer (so nothing else is in flight) starts at its ready
    time instead of being reported as deadlocked."""
    b = GraphBuilder("slow_weights")
    x = b.input("x", TensorShape(3, 8, 8))
    x = b.conv(x, out_channels=64, kernel=3, bias=BiasMode.TIED)
    b.conv(x, out_channels=96, kernel=3, bias=BiasMode.TIED)
    plan = build_pipeline_plan(b.graph)
    simulator = PipelineSimulator(
        plan, AcceleratorConfig.uniform(plan), INT8, 0.05, 200.0
    )
    stats = simulator.run(frames=3)
    assert all(st.frames_done == 3 for st in stats.stages.values())
