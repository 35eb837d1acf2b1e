"""In-memory spans around the program's public entry points.

The benchmark does not edit the program. A traced pass patches the names
that callers look up at call time (a class attribute, or a module global
read through its module) with a wrapper that records one span per call:
name, start, end and the span that was open when the call began. Spans
live in flat arrays while the pass runs and are summarised or written
out after it. Everything runs on one thread, so a stack gives each span
its parent; the asyncio replay path only ever calls these synchronous
functions between awaits, so its spans nest too.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: Adds counts to ``counts`` from one call's positional arguments and
#: return value.
CountFn = Callable[[dict, tuple, Any], None]


@dataclass(frozen=True)
class SpanTotals:
    """One span name's totals over a pass."""

    calls: int
    busy_s: float
    self_s: float


class Tracer:
    """Records spans for the wrapped entry points, plus named counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and count."""
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self.starts[index] = started
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, busy time and self time per span name.

        Self time is a span's duration minus the part its direct children
        cover. Children of one span never overlap (one thread), so that
        part is the sum of their durations.
        """
        if not self.starts:
            return {}
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        durations = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(durations)
        )
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        busy = np.bincount(names, weights=durations, minlength=width)
        own = np.bincount(names, weights=durations - covered, minlength=width)
        return {
            name: SpanTotals(int(calls[i]), float(busy[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans as arrays in one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )


def _count_buckets(counts: dict, args: tuple, result: Any) -> None:
    counts["dse.kernel.buckets"] = counts.get("dse.kernel.buckets", 0) + len(args[1])


def _count_sim(counts: dict, args: tuple, stats: Any) -> None:
    steps = sum(stage.steps_done for stage in stats.stages.values())
    counts["sim.steps"] = counts.get("sim.steps", 0) + steps
    counts["sim.cycles"] = counts.get("sim.cycles", 0.0) + stats.total_cycles


def _count_requests(counts: dict, args: tuple, trace: Any) -> None:
    counts["serving.traffic.requests"] = (
        counts.get("serving.traffic.requests", 0) + len(trace)
    )


def _count_admitted(counts: dict, args: tuple, admitted: bool) -> None:
    counts["serving.admission.admitted"] = (
        counts.get("serving.admission.admitted", 0) + bool(admitted)
    )


def entry_points() -> list[tuple[object, str, str, CountFn | None]]:
    """(owner, attribute, span name, count) for every wrapped entry point.

    Each owner is where the caller looks the name up: the class for a
    method, the calling module for a function imported with ``from``.
    """
    from repro.dse import crossbranch, objective, worker
    from repro.dse import engine as dse_engine
    from repro.fcad import flow
    from repro.serving import admission, engine, router, traffic
    from repro.serving import workload as serving_workload
    from repro.sim import pipeline

    return [
        (flow.FCad, "run", "fcad.run", None),
        (flow.FCad, "prepare", "fcad.prepare", None),
        (dse_engine.DseEngine, "search", "dse.search", None),
        (crossbranch.CrossBranchOptimizer, "search", "dse.crossbranch", None),
        (worker.GenerationEvaluator, "__call__", "dse.worker", None),
        (worker, "solve_buckets", "dse.kernel", _count_buckets),
        (objective.SimOracle, "measure", "dse.objective.rerank", None),
        (objective.ServingOracle, "measure", "dse.objective.rerank", None),
        (pipeline.PipelineSimulator, "run", "sim", _count_sim),
        (serving_workload, "replay_workload", "serving.replay", None),
        (traffic, "make_trace", "serving.traffic", _count_requests),
        (engine, "serve_trace", "serving.engine", None),
        (admission.AdmissionControl, "admit", "serving.admission", _count_admitted),
        (router.RoundRobinRouter, "route", "serving.router", None),
        (router.LeastLoadedRouter, "route", "serving.router", None),
        (router.DeadlineTieredRouter, "route", "serving.router", None),
        (engine, "failover_route", "serving.router", None),
    ]


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the ``with`` block, then restore them."""
    saved = []
    try:
        for owner, attr, name, count in entry_points():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
