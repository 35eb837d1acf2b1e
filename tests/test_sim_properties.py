"""Hypothesis properties of the cycle-accurate simulator.

For generated chain and multi-branch decoder graphs, valid per-stage
cpf/kpf/h factors, replica counts, DRAM bandwidths and 1-10 frames, every
run must finish without deadlock, account for every step and frame, keep
each stage's timeline ordered, and reproduce itself exactly. The
event-driven loop (a completion wakes only its own stage, producers and
consumers) must also match a reference that re-polls every stage after
every completion.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import AcceleratorConfig, BranchConfig, StageConfig
from repro.construction.reorg import build_pipeline_plan
from repro.quant.schemes import INT8
from repro.sim.pipeline import PipelineSimulator
from repro.sim.stats import SimStats, StageStats
from tests.conftest import make_chain, make_tiny_decoder


@st.composite
def graphs(draw):
    if draw(st.booleans()):
        return make_chain(
            depth=draw(st.integers(1, 4)),
            channels=draw(st.sampled_from([2, 4, 8, 16])),
            size=draw(st.sampled_from([4, 8, 16])),
        )
    return make_tiny_decoder(
        untied=draw(st.booleans()),
        base=draw(st.sampled_from([2, 4])),
        channels=draw(st.sampled_from([4, 8])),
    )


@st.composite
def setups(draw):
    plan = build_pipeline_plan(draw(graphs()))
    branches = []
    for pipeline in plan.branches:
        stages = []
        for planned in pipeline.stages:
            stage = planned.stage
            stages.append(
                StageConfig(
                    cpf=draw(st.integers(1, stage.cpf_max)),
                    kpf=draw(st.integers(1, stage.kpf_max)),
                    h=draw(st.integers(1, stage.h_max)),
                )
            )
        branches.append(
            BranchConfig(batch_size=draw(st.integers(1, 3)), stages=tuple(stages))
        )
    bandwidth = draw(st.sampled_from([0.02, 0.2, 1.0, 12.8]))
    return plan, AcceleratorConfig(branches=tuple(branches)), bandwidth


def _simulator(setup) -> PipelineSimulator:
    plan, config, bandwidth = setup
    return PipelineSimulator(plan, config, INT8, bandwidth, 200.0)


def polling_run(simulator: PipelineSimulator, frames: int) -> SimStats:
    """Reference schedule: after every completion, sweep every stage in
    stage order until a sweep starts nothing."""
    sims = list(simulator.stages.values())
    stats = SimStats(frames_requested=frames)
    for sim in sims:
        sim.frames_target = frames
        stats.stages[sim.name] = StageStats(name=sim.name)
    dram = simulator.dram
    ready_at, dram_ready = {}, {}
    for sim in sims:
        ready_at[sim.name] = dram.request("", sim.resident_weight_bytes, 0.0)
        dram_ready[sim.name] = dram.request(
            sim.name, sim.dram_bytes_per_step, ready_at[sim.name]
        )
        sim.idle_since = ready_at[sim.name]
    counter = itertools.count()
    events: list = []

    def sweep(now: float) -> None:
        started = True
        while started:
            started = False
            for sim in sims:
                if (
                    sim.busy
                    or sim.done()
                    or ready_at[sim.name] > now
                    or not sim.inputs_available()
                    or not sim.credits_available()
                ):
                    continue
                record = stats.stages[sim.name]
                record.input_stall_cycles += now - sim.idle_since
                dram_done = dram_ready[sim.name]
                dram_ready[sim.name] = dram.request(
                    sim.name, sim.dram_bytes_per_step, now
                )
                compute_done = now + sim.compute_cycles_per_step
                finish = max(compute_done, dram_done)
                record.busy_cycles += sim.compute_cycles_per_step
                record.dram_stall_cycles += finish - compute_done
                record.record_interval(now, finish)
                sim.busy = True
                heapq.heappush(events, (finish, next(counter), sim.name))
                started = True

    now = 0.0
    for now in sorted(set(ready_at.values())):
        sweep(now)
    while True:
        if not events:
            waiting = [
                ready_at[s.name]
                for s in sims
                if not s.busy and not s.done() and ready_at[s.name] > now
            ]
            if not waiting:
                break
            now = min(waiting)
            sweep(now)
            continue
        now, _, name = heapq.heappop(events)
        sim = simulator.stages[name]
        record = stats.stages[name]
        if sim.step >= sim.steps_per_frame - 1:
            record.frames_done += 1
            record.frame_finish_times.append(now)
        sim.complete_step()
        sim.busy = False
        sim.idle_since = now
        record.steps_done += 1
        sweep(now)
    stats.total_cycles = now
    stats.dram_busy_cycles = dram.busy_cycles
    stats.dram_bytes = dram.bytes_moved
    return stats


@settings(max_examples=60, deadline=None)
@given(setup=setups(), frames=st.integers(1, 10))
def test_run_completes_and_accounts_every_step(setup, frames):
    simulator = _simulator(setup)
    stats = simulator.run(frames=frames)  # raises on deadlock
    for name, sim in simulator.stages.items():
        record = stats.stages[name]
        assert record.steps_done == frames * sim.steps_per_frame
        assert record.frames_done == frames
        assert record.busy_cycles == record.steps_done * sim.compute_cycles_per_step
        times = record.frame_finish_times
        assert len(times) == frames
        assert all(a <= b for a, b in zip(times, times[1:]))
        intervals = record.busy_intervals
        assert all(start <= end for start, end in intervals)
        assert all(
            prev_end <= start
            for (_, prev_end), (start, _) in zip(intervals, intervals[1:])
        )
    assert _simulator(setup).run(frames=frames) == stats


@settings(max_examples=60, deadline=None)
@given(setup=setups(), frames=st.integers(1, 10))
def test_wakeup_loop_matches_polling_reference(setup, frames):
    assert _simulator(setup).run(frames=frames) == polling_run(
        _simulator(setup), frames
    )
