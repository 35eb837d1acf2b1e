"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
operation in ``run``. An operation is deterministic in the seed, so two
operations at one seed must return the same ``Outcome.digest``. The
defaults are the benchmark's sizes; the tests pass smaller ones.

Only ``explore`` seeds its searches with the workload seed. The other
workloads search with ``DESIGN_SEED`` and take their traffic from the
workload seed: the design a search picks changes how much simulation
and serving work follows it (the re-ranked designs' simulated steps
vary by about 12% between seeds), and that would read as a change in
speed between runs at different seeds.

Every call into the program goes through the name a traced pass patches
(``flow.FCad.run``, ``traffic.make_trace``, ``engine.serve_trace``), so
the spans in :mod:`spans` see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.devices.fpga import get_device
from repro.dse.objective import ServingOracle
from repro.dse.result import DseResult, result_to_json
from repro.dse.worker import clear_process_caches
from repro.fcad import flow
from repro.models.zoo import get_model
from repro.serving import engine, traffic
from repro.serving.chaos import ChaosPlan, RecoveryPolicy
from repro.serving.engine import AutoscalePolicy
from repro.serving.slo import ServingReport, report_to_json

MODEL = "codec_avatar_decoder"
DESIGN_SEED = 0

#: DseResult fields measured on the host clock; zeroed before digesting so
#: the digest covers only what the search decided.
HOST_TIME_FIELDS = (
    "runtime_seconds",
    "eval_seconds",
    "cache_seconds",
    "overhead_seconds",
    "ladder_seconds",
    "growth_seconds",
    "measure_seconds",
)


@dataclass(frozen=True)
class Outcome:
    """What one operation produced."""

    #: sha256 over ``result_to_json`` / ``report_to_json`` of every output.
    digest: str
    #: Best fitness of each search, by search label.
    fitness: dict[str, float]
    #: PSO candidates scored (iterations x population, summed).
    candidates: int
    dse: tuple[DseResult, ...]
    #: Reports of the heap engine sessions the operation served.
    reports: tuple[ServingReport, ...]
    #: The autoscaler's replica cap (0: no autoscaling).
    replica_cap: int = 0


def simulated_json(result: DseResult) -> str:
    """``result_to_json`` with the host-clock fields zeroed."""
    cleared = dataclasses.replace(result, **{f: 0.0 for f in HOST_TIME_FIELDS})
    return result_to_json(cleared)


def make_outcome(
    searches: dict[str, DseResult],
    candidates: int,
    reports: tuple[ServingReport, ...] = (),
    replica_cap: int = 0,
) -> Outcome:
    digest = hashlib.sha256()
    for label, result in searches.items():
        digest.update(label.encode())
        digest.update(simulated_json(result).encode())
    for report in reports:
        digest.update(report_to_json(report).encode())
    return Outcome(
        digest=digest.hexdigest(),
        fitness={label: r.best_fitness for label, r in searches.items()},
        candidates=candidates,
        dse=tuple(searches.values()),
        reports=reports,
        replica_cap=replica_cap,
    )


@dataclass(frozen=True)
class Explore:
    """Cold paper-scale searches, analytical objective, one per device."""

    name: ClassVar[str] = "explore"
    devices: tuple[str, ...] = ("Z7045", "ZU9CG", "KU115")
    iterations: int = 20
    population: int = 200

    def setup(self, seed: int) -> list[flow.FCad]:
        network = get_model(MODEL)
        flows = [flow.FCad(network=network, device=get_device(d)) for d in self.devices]
        for design in flows:
            design.prepare()
        return flows

    def run(self, flows: list[flow.FCad], seed: int) -> Outcome:
        searches = {}
        for device, design in zip(self.devices, flows):
            # Cold: no Algorithm-2 tables left over from the last search.
            clear_process_caches()
            searches[device] = design.run(
                iterations=self.iterations,
                population=self.population,
                seed=seed,
                workers=1,
            ).dse
        return make_outcome(
            searches, len(flows) * self.iterations * self.population
        )


@dataclass(frozen=True)
class Rerank:
    """Staged SLO searches re-ranked by the sim and the serving oracle.

    The serving oracle replays its canned avatar fleet with arrival
    phases drawn from the workload seed.
    """

    name: ClassVar[str] = "rerank"
    device: str = "ZU9CG"
    iterations: int = 2
    population: int = 12
    top_k: int = 4

    def setup(self, seed: int) -> flow.FCad:
        design = flow.FCad(network=get_model(MODEL), device=get_device(self.device))
        design.prepare()
        return design

    def run(self, design: flow.FCad, seed: int) -> Outcome:
        oracles = {"sim": "sim", "serving": ServingOracle(seed=seed)}
        searches = {}
        for name, oracle in oracles.items():
            clear_process_caches()
            searches[name] = design.run(
                iterations=self.iterations,
                population=self.population,
                seed=DESIGN_SEED,
                workers=1,
                objective="slo",
                rerank_oracle=oracle,
                rerank_top_k=self.top_k,
            ).dse
        return make_outcome(
            searches, len(oracles) * self.iterations * self.population
        )


@dataclass(frozen=True)
class Pipeline1M:
    """The whole pipeline at the committed one-million-avatar scale.

    ``FCad.run`` -> ``frame_latency_profile`` -> ``make_trace`` ->
    ``serve_trace`` with admission and autoscaling, as in the serving
    bench's engine session. The session sheds about half its requests
    with the autoscaler pinned at its cap; that is reported, not tuned.
    """

    name: ClassVar[str] = "pipeline_1m"
    device: str = "ZU9CG"
    iterations: int = 5
    population: int = 40
    frames: int = 8
    avatars: int = 1_000_000
    duration_s: float = 120.0
    avatar_fps: float = 1.0 / 60.0
    deadline_ms: float = 200.0
    jitter_ms: float = 400.0
    replicas: int = 2
    max_replicas: int = 64

    def setup(self, seed: int) -> tuple[flow.FCad, AutoscalePolicy]:
        design = flow.FCad(network=get_model(MODEL), device=get_device(self.device))
        design.prepare()
        autoscale = AutoscalePolicy(
            check_interval_ms=1000.0,
            warmup_ms=5000.0,
            min_replicas=self.replicas,
            max_replicas=self.max_replicas,
        )
        return design, autoscale

    def run(self, state: tuple[flow.FCad, AutoscalePolicy], seed: int) -> Outcome:
        design, autoscale = state
        clear_process_caches()
        result = design.run(
            iterations=self.iterations,
            population=self.population,
            seed=DESIGN_SEED,
            workers=1,
        )
        profile = result.frame_latency_profile(frames=self.frames)
        trace = traffic.make_trace(
            self.avatars,
            self.duration_s,
            shape="diurnal",
            avatar_fps=self.avatar_fps,
            deadline_ms=self.deadline_ms,
            jitter_ms=self.jitter_ms,
            seed=seed,
        )
        report = engine.serve_trace(
            result.serving_group(
                name="fleet", replicas=self.replicas, policy="edf", profile=profile
            ),
            trace,
            admission=True,
            autoscale=autoscale,
        )
        return make_outcome(
            {"design": result.dse},
            self.iterations * self.population,
            (report,),
            replica_cap=self.max_replicas,
        )


@dataclass(frozen=True)
class ServeChaos:
    """A two-tier heap-engine cluster serving through replica faults.

    One design serves as an EDF latency tier and a FIFO throughput tier
    behind the deadline router, with no admission and no autoscaling.
    The fault plan kills the whole latency tier at once (two failed
    batches in a row trip its breaker, so traffic fails over until the
    replacements arrive), crashes and stalls throughput replicas and
    degrades another; the recovery policy retries, hedges, breaks and
    replaces. The trace is steady with churn and offers about 0.8 of the
    cluster's steady-state capacity.
    """

    name: ClassVar[str] = "serve_chaos"
    device: str = "ZU9CG"
    iterations: int = 5
    population: int = 40
    frames: int = 8
    latency_replicas: int = 4
    throughput_replicas: int = 8
    avatars: int = 38
    duration_s: float = 120.0
    deadline_tiers_ms: tuple[float, ...] = (20.0, 150.0, 150.0)
    churn: float = 0.3
    jitter_ms: float = 5.0
    chaos: str = (
        "die-at:latency/0:30000,die-at:latency/1:30000,die-at:latency/2:30000,"
        "die-at:latency/3:30000,"
        "crash-at:throughput/1:800,stall:throughput/2:300:3000,"
        "degrade:throughput/3:1500:1.5"
    )
    recovery: RecoveryPolicy = RecoveryPolicy(
        max_retries=2, hedge=True, breaker_threshold=2, replace_after_ms=1000.0
    )

    def setup(self, seed: int) -> tuple[Any, ...]:
        design = flow.FCad(network=get_model(MODEL), device=get_device(self.device))
        clear_process_caches()
        result = design.run(
            iterations=self.iterations,
            population=self.population,
            seed=DESIGN_SEED,
            workers=1,
        )
        profile = result.frame_latency_profile(frames=self.frames)
        groups = (
            result.serving_group(
                name="latency",
                replicas=self.latency_replicas,
                policy="edf",
                batch_window_ms=1.0,
                profile=profile,
            ),
            result.serving_group(
                name="throughput",
                replicas=self.throughput_replicas,
                policy="fifo",
                batch_window_ms=8.0,
                profile=profile,
            ),
        )
        return groups, ChaosPlan.parse(self.chaos)

    def run(self, state: tuple[Any, ...], seed: int) -> Outcome:
        groups, plan = state
        trace = traffic.make_trace(
            self.avatars,
            self.duration_s,
            shape="steady",
            avatar_fps=30.0,
            deadline_tiers=self.deadline_tiers_ms,
            jitter_ms=self.jitter_ms,
            seed=seed,
            churn=self.churn,
        )
        report = engine.serve_trace(
            list(groups),
            trace,
            router="deadline",
            chaos=plan,
            recovery=self.recovery,
        )
        return make_outcome({}, 0, (report,))


WORKLOADS = {w.name: w for w in (Explore, Rerank, Pipeline1M, ServeChaos)}
