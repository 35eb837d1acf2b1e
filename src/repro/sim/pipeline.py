"""Event-driven execution of the whole multi-pipeline accelerator."""

from __future__ import annotations

import heapq
import itertools
from numbers import Integral

from repro.arch.config import AcceleratorConfig
from repro.construction.reorg import PipelinePlan
from repro.quant.schemes import QuantScheme
from repro.sim.dram import DramChannel
from repro.sim.stage import StageSim
from repro.sim.stats import SimStats, StageStats


class PipelineSimulator:
    """Simulates one replica of every branch pipeline of a plan.

    Multi-replica (batch > 1) branches process independent frames on
    identical copies; the runner scales their frame rate by the replica
    count (replica DRAM contention is second-order next to the modeled
    streams and is noted in EXPERIMENTS.md).

    An instance is single-use: :meth:`run` consumes its link credits and
    DRAM flow state, so a second call raises instead of returning stats
    corrupted by the first run. Build a fresh simulator per run.
    """

    def __init__(
        self,
        plan: PipelinePlan,
        config: AcceleratorConfig,
        quant: QuantScheme,
        bandwidth_gbps: float,
        frequency_mhz: float = 200.0,
    ) -> None:
        config.validate_for(plan)
        self.plan = plan
        self.config = config
        self.quant = quant
        self.frequency_mhz = frequency_mhz
        self.dram = DramChannel(
            bandwidth_gbps=bandwidth_gbps, frequency_mhz=frequency_mhz
        )
        self._ran = False

        terminal_names = {
            pipeline.stages[-1].name for pipeline in plan.branches
        }
        self.stages: dict[str, StageSim] = {}
        for pipeline, branch_cfg in zip(plan.branches, config.branches):
            for planned, stage_cfg in zip(pipeline.stages, branch_cfg.stages):
                self.stages[planned.name] = StageSim(
                    stage=planned.stage,
                    cfg=stage_cfg,
                    quant=quant,
                    is_terminal=planned.name in terminal_names,
                    branch=pipeline.index,
                )
        self._wire()
        self.dram.register_flows(
            {
                name: sim.dram_bytes_per_step * sim.steps_per_frame
                for name, sim in self.stages.items()
            }
        )

    def _wire(self) -> None:
        from repro.sim.stage import LinkState

        for sim in self.stages.values():
            for source in sim.stage.sources:
                producer = self.stages.get(source)
                if producer is None:
                    continue  # external input
                sim.producers.append(producer)
                # Line-buffer capacity: the window a step needs, doubled,
                # plus slack — enough to never deadlock, small enough to
                # exert real backpressure. A highly H-partitioned producer
                # emits a whole row burst atomically, so the buffer must
                # also absorb one full producer step.
                need = sim.producer_rows_needed(0)
                burst = producer.rows_after_step(0)
                capacity = max(
                    2 * (need + sim.window_overlap_rows() + 1),
                    burst + need + 1,
                )
                producer.out_links.append(
                    LinkState(consumer=sim, capacity_rows=capacity)
                )
        for sim in self.stages.values():
            sim.build_tables()

        # A completion changes only its own stage (progress, busy flag),
        # its producers' credit and its consumers' input rows, so those are
        # the only stages it can make startable. Indices are stage order.
        index = {name: i for i, name in enumerate(self.stages)}
        self._wake = [
            sorted(
                {i}
                | {index[producer.name] for producer in sim.producers}
                | {index[link.consumer.name] for link in sim.out_links}
            )
            for i, sim in enumerate(self.stages.values())
        ]

    # ------------------------------------------------------------------
    def run(self, frames: int = 8) -> SimStats:
        """Simulate ``frames`` frames through every pipeline.

        Event-driven over step completions. Starting a step changes only
        the started stage, so one pass over the candidates in stage order
        starts every startable stage. A completion re-checks only its
        stage's ``wake`` list (itself, its producers, its consumers) plus
        the stages last seen waiting only for their start-up ``ready_at``
        time — the one predicate that turns true by the clock alone.
        """
        if isinstance(frames, bool) or not isinstance(frames, Integral):
            raise TypeError(f"frames must be an int, got {frames!r}")
        if frames < 1:
            raise ValueError("need at least one frame")
        if self._ran:
            raise RuntimeError(
                "PipelineSimulator.run is single-use; build a fresh "
                "simulator for another run"
            )
        self._ran = True
        sims = list(self.stages.values())
        wake = self._wake
        stats = SimStats(frames_requested=frames)
        stage_stats = []
        for sim in sims:
            sim.frames_target = frames
            sim.frame = 0
            sim.step = 0
            sim.emitted_rows = 0
            sim.busy = False
            st = stats.stages[sim.name] = StageStats(name=sim.name)
            stage_stats.append(st)

        # Startup: resident weights load once through DRAM, then the first
        # step's streamed data is prefetched on the stage's own flow.
        request = self.dram.request
        ready_at: list[float] = []
        dram_ready: list[float] = []
        for sim in sims:
            loaded = request("", sim.resident_weight_bytes, 0.0)
            ready_at.append(loaded)
            dram_ready.append(request(sim.name, sim.dram_bytes_per_step, loaded))
            sim.idle_since = loaded

        counter = itertools.count()
        events: list[tuple[float, int, int]] = []
        blocked: set[int] = set()  # stages that only wait for ready_at
        now = 0.0

        def start_startable(candidates) -> None:
            if blocked:
                candidates = sorted(blocked.union(candidates))
                blocked.clear()
            for i in candidates:
                sim = sims[i]
                if sim.busy or sim.frame >= frames:
                    continue
                if ready_at[i] > now:
                    blocked.add(i)
                    continue
                if not sim.inputs_available() or not sim.credits_available():
                    continue
                st = stage_stats[i]
                st.input_stall_cycles += now - sim.idle_since
                # This step waits for the data prefetched one step earlier;
                # the next step's transfer starts now (double buffering).
                dram_done = dram_ready[i]
                dram_ready[i] = request(sim.name, sim.dram_bytes_per_step, now)
                compute_done = now + sim.compute_cycles_per_step
                finish = max(compute_done, dram_done)
                st.busy_cycles += sim.compute_cycles_per_step
                st.dram_stall_cycles += finish - compute_done
                st.record_interval(now, finish)
                sim.busy = True
                heapq.heappush(events, (finish, next(counter), i))

        # Kick off anything that can start at the ready times.
        everyone = range(len(sims))
        for t in sorted(set(ready_at)):
            now = t
            start_startable(everyone)

        while events or blocked:
            if not events:
                # Nothing is in flight, but a stage still waits out its
                # weight load: it starts at its ready time.
                now = min(ready_at[i] for i in blocked)
                start_startable(())
                continue
            now, _, i = heapq.heappop(events)
            sim = sims[i]
            st = stage_stats[i]
            was_last_step = sim.step >= sim.steps_per_frame - 1
            sim.complete_step()
            sim.busy = False
            sim.idle_since = now
            st.steps_done += 1
            if was_last_step:
                st.frames_done += 1
                st.frame_finish_times.append(now)
            start_startable(wake[i])

        stats.total_cycles = now
        stats.dram_busy_cycles = self.dram.busy_cycles
        stats.dram_bytes = self.dram.bytes_moved
        unfinished = [s.name for s in sims if not s.done()]
        if unfinished:
            raise RuntimeError(
                f"simulation deadlocked; unfinished stages: {unfinished}"
            )
        return stats
