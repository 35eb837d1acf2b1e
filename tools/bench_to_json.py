#!/usr/bin/env python
"""Run a reduced benchmark suite and emit a machine-readable BENCH_*.json.

Three suites, one per CI smoke job, each compared against its committed
``BENCH_<suite>.json`` so the repo's performance trajectory is visible
PR over PR:

- ``--suite dse`` (default) — the DSE convergence study at reduced size:
  serial vs parallel (bit-identity, speedup, and the serial run's
  identity to the committed trajectory) and the batched Algorithm-2
  kernel microbenchmark.
- ``--suite serving`` — explore two designs, serve one mixed-deadline
  workload under FIFO, EDF and fair batching, a mixed cluster against
  homogeneous pools, a replica-loss chaos session, and the event-heap
  engine through a million-avatar diurnal session with autoscaling.
- ``--suite dist`` — the fleet runtime: sharded and killed-worker sweeps
  bit-identical to serial, and remote serving across a forced reconnect.

A suite is a ``setup`` that builds what its sections share plus an
ordered dict of sections; each section returns its slice of the payload
and the gates it failed. The driver writes ``BENCH_<suite>.json`` and
``benchmarks/out/<suite>-smoke.txt``, prints the trajectory against the
committed file, prints every failed gate as
``ERROR: <suite>/<section>: <message>`` and exits 1 if there was one.

Run:  PYTHONPATH=src python tools/bench_to_json.py [--suite serving] [--out F]
(or from anywhere: the script puts ``src/`` on ``sys.path`` itself)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.convergence import ConvergenceResult, run_convergence  # noqa: E402

#: Fixed suite parameters, recorded in each payload's ``config``.
DEVICE = "ZU9CG"
QUANT = "int8"
MODEL = "codec_avatar_decoder"
DSE_OBJECTIVE = "paper"
DSE_SEARCHES = 2
SERVING_REPLICAS = 2
SERVING_MAX_BATCH = 8
SERVING_FRAMES = 30
SERVING_AVATAR_FPS = 30.0


def physical_core_count() -> int | None:
    """Physical cores from /proc/cpuinfo (``None`` where unreadable).

    ``os.cpu_count()`` reports hyperthreads; the speedup gate's story
    ("parallel should beat serial on a multi-core box") is about real
    cores, so the payload records both.
    """
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    cores: set[tuple[str, str]] = set()
    physical_id = "0"
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            physical_id = value.strip()
        elif key == "core id":
            cores.add((physical_id, value.strip()))
    return len(cores) or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "physical_cores": physical_core_count(),
        # CI pins the parallel run's worker count through this variable;
        # recording it makes payloads from differently-pinned runners
        # distinguishable.
        "FCAD_BENCH_WORKERS": os.environ.get("FCAD_BENCH_WORKERS"),
    }


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Skip:
    """A gate that cannot run on this machine or config (not a failure)."""

    gate: str
    reason: str


#: ``run(ctx) -> (payload fields, gates)``; a gate is a failure message
#: or a :class:`Skip`.
Section = Callable[[SimpleNamespace], "tuple[dict, list]"]


@dataclass(frozen=True)
class Suite:
    benchmark: str
    #: ``setup(args) -> (config, ctx)``: what the sections share.
    setup: Callable[[argparse.Namespace], "tuple[dict, SimpleNamespace]"]
    #: Ordered ``name -> run``; each section's fields merge into the payload.
    sections: dict[str, Section]
    #: ``(label, dotted JSON path)`` rows compared against the baseline.
    trajectory: tuple[tuple[str, str], ...]


def load_baseline(path: Path, benchmark: str, config: dict) -> dict | None:
    """The committed payload at ``path`` if it measured this exact run."""
    try:
        baseline = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if baseline.get("benchmark") != benchmark or baseline.get("config") != config:
        return None
    return baseline


def _lookup(payload: dict | None, path: str):
    for key in path.split("."):
        if not isinstance(payload, dict):
            return None
        payload = payload.get(key)
    return payload


def _trend(label: str, old, new) -> str:
    if new is None:
        return f"  {label}: {old} -> n/a"
    if old is None:
        return f"  {label}: {new} (no baseline)"
    if not old:
        return f"  {label}: {old} -> {new}"
    change = 100.0 * (new - old) / old
    return f"  {label}: {old} -> {new} ({change:+.1f}%)"


def compare_to_baseline(
    baseline: dict, payload: dict, rows: tuple[tuple[str, str], ...]
) -> tuple[list[str], dict]:
    """Trajectory lines and ``{key: {"baseline", "now"}}`` deltas."""
    lines, deltas = [], {}
    for label, path in rows:
        old, new = _lookup(baseline, path), _lookup(payload, path)
        lines.append(_trend(label, old, new))
        deltas[label.replace(" ", "_")] = {"baseline": old, "now": new}
    return lines, deltas


def run_suite(name: str, args: argparse.Namespace) -> int:
    """Run one suite's sections; write its JSON and smoke text; gate."""
    suite = SUITES[name]
    config, ctx = suite.setup(args)
    # Always the committed file, whatever --out says; the payload is
    # written only after this read.
    ctx.baseline = load_baseline(
        REPO / f"BENCH_{name}.json", suite.benchmark, config
    )
    payload = {
        "benchmark": suite.benchmark,
        "config": config,
        "environment": environment(),
    }
    report, tail, failed, skips = [], [], [], []
    for section, run in suite.sections.items():
        started = time.perf_counter()
        try:
            fields, gates = run(ctx)
        except Exception as exc:  # a crashed section is a failed gate
            traceback.print_exc()
            fields, gates = {}, [f"raised {exc!r}"]
        payload.update(fields)
        status = "ok"
        for gate in gates:
            if isinstance(gate, Skip):
                skips.append({"gate": gate.gate, "reason": gate.reason})
                tail.append(
                    f"SKIPPED: {name}/{section}: {gate.gate} gate — "
                    f"{gate.reason}"
                )
            else:
                status = "FAILED"
                failed.append(f"{section}: {gate}")
        report.append(
            f"{name}/{section}: {status} "
            f"({time.perf_counter() - started:.2f}s)"
        )
        print(report[-1], flush=True)
    payload["gate_skips"] = skips
    payload["gates"] = failed
    if ctx.baseline is None:
        tail.append(
            f"no comparable committed BENCH_{name}.json baseline "
            "(first run, or the reduced-size config changed)"
        )
    else:
        lines, payload["baseline_comparison"] = compare_to_baseline(
            ctx.baseline, payload, suite.trajectory
        )
        tail += [f"perf trajectory vs committed BENCH_{name}.json:", *lines]
    tail += [f"ERROR: {name}/{gate}" for gate in failed]
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    out_dir = REPO / "benchmarks" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}-smoke.txt").write_text(
        f"### {suite.benchmark} smoke (reduced size)\n"
        + "\n".join(report + tail)
        + "\n"
    )
    print(f"wrote {args.out}")
    print("\n".join(tail))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# suite: dse
# ---------------------------------------------------------------------------
#: How much slower than serial the parallel run may be before the gate
#: fails (only enforced on multi-core runners).
SPEEDUP_GATE_TOLERANCE = 1.10

#: Minimum speedup of the batched Algorithm-2 kernel over the scalar
#: solver on the committed microbenchmark config, and the stream size the
#: gate is measured at. The speedup comes from vectorization, not
#: parallelism, so the gate holds on single-core runners too.
KERNEL_SPEEDUP_GATE = 2.0
KERNEL_BUCKETS = 512


def summarize(result: ConvergenceResult, wall_seconds: float) -> dict:
    return {
        "workers": result.workers,
        "wall_seconds": round(wall_seconds, 3),
        "best_fitness": result.best_fitness,
        "best_fitness_per_search": [s.best_fitness for s in result.searches],
        "avg_convergence_iteration": result.avg_iteration,
        "evaluations": result.total_evaluations,
        "cache_hits": result.total_cache_hits,
        # Headline rate: hits over lookups across the whole evaluation
        # data path (bucket-level result cache + Algorithm 2's stage
        # memo tables). The per-level rates sit next to it.
        "cache_hit_rate": round(result.combined_hit_rate, 4),
        "bucket_hit_rate": round(result.bucket_hit_rate, 4),
        "stage_hits": result.total_stage_hits,
        "stage_lookups": result.total_stage_lookups,
        "phases": {
            "eval_seconds": round(result.eval_seconds, 3),
            "cache_seconds": round(result.cache_seconds, 3),
            "pool_overhead_seconds": round(result.overhead_seconds, 3),
            # The batched kernel's share of eval_seconds, split by
            # Algorithm-2 phase (wall time inside the solving process).
            "ladder_seconds": round(result.ladder_seconds, 3),
            "growth_seconds": round(result.growth_seconds, 3),
            "measure_seconds": round(result.measure_seconds, 3),
        },
    }


def _timed_convergence(
    run_kwargs: dict, **kwargs
) -> tuple[ConvergenceResult, float]:
    """One convergence run from cold process-local tables, so every
    measured run is comparable."""
    from repro.dse.worker import clear_process_caches

    clear_process_caches()
    started = time.perf_counter()
    result = run_convergence(**run_kwargs, **kwargs)
    return result, time.perf_counter() - started


def dse_setup(args: argparse.Namespace) -> tuple[dict, SimpleNamespace]:
    run_kwargs = dict(
        device_name=DEVICE,
        quant_name=QUANT,
        searches=DSE_SEARCHES,
        iterations=args.iterations,
        population=args.population,
        objective=DSE_OBJECTIVE,
    )
    serial, serial_wall = _timed_convergence(run_kwargs, workers=1)
    ctx = SimpleNamespace(
        run_kwargs=run_kwargs,
        workers=args.workers,
        serial=serial,
        serial_wall=serial_wall,
    )
    return dict(run_kwargs, rerank="none"), ctx


def dse_convergence(ctx: SimpleNamespace) -> tuple[dict, list]:
    """Parallel vs serial: bit-identity, and speedup on multi-core runners.

    The serial run must also reproduce the committed baseline's
    per-search best fitness: the config is the baseline's, so any drift
    is a change to what the search decides.
    """
    parallel, parallel_wall = _timed_convergence(
        ctx.run_kwargs, workers=ctx.workers
    )
    serial, serial_wall = ctx.serial, ctx.serial_wall
    serial_fitness = [s.best_fitness for s in serial.searches]
    deterministic = serial_fitness == [
        s.best_fitness for s in parallel.searches
    ]
    base_fitness = _lookup(ctx.baseline, "serial.best_fitness_per_search")
    identical_to_baseline = (
        None if base_fitness is None else base_fitness == serial_fitness
    )
    gates: list = []
    if not deterministic:
        gates.append("parallel search diverged from serial results")
    if identical_to_baseline is None:
        gates.append(
            Skip("serial-identity-to-baseline", "no comparable committed baseline")
        )
    elif not identical_to_baseline:
        gates.append(
            f"serial run diverged from the committed baseline "
            f"({base_fitness} -> {serial_fitness})"
        )
    if (os.cpu_count() or 1) <= 1:
        speedup_gate = "skipped"
        gates.append(
            Skip(
                "speedup",
                "single-core runner, parallel wall time is expected to "
                "trail serial here",
            )
        )
    elif parallel_wall <= serial_wall * SPEEDUP_GATE_TOLERANCE:
        speedup_gate = "passed"
    else:
        speedup_gate = "failed"
        gates.append(
            f"speedup gate failed on a multi-core runner "
            f"({os.cpu_count()} cores): parallel {parallel_wall:.2f}s > "
            f"serial {serial_wall:.2f}s x {SPEEDUP_GATE_TOLERANCE}"
        )
    return {
        "serial": summarize(serial, serial_wall),
        "parallel": summarize(parallel, parallel_wall),
        "speedup": round(serial_wall / parallel_wall, 3)
        if parallel_wall > 0
        else None,
        "deterministic": deterministic,
        "serial_identical_to_baseline": identical_to_baseline,
        "speedup_gate": speedup_gate,
    }, gates


def dse_kernel(ctx: SimpleNamespace) -> tuple[dict, list]:
    """The batched-kernel microbenchmark: identity and speedup gates.

    Replays a generation-shaped stream of budget buckets through the
    scalar solver and the batched kernel (``benchmarks/bench_inbranch``).
    The solutions must be byte-for-byte identical, and the batched pass
    must beat the scalar loop by ``KERNEL_SPEEDUP_GATE``.
    """
    sys.path.insert(0, str(REPO / "benchmarks"))
    from bench_inbranch import run_microbench

    section = run_microbench(
        buckets_per_branch=KERNEL_BUCKETS,
        seed=0,
        device_name=DEVICE,
        quant_name=QUANT,
    )
    gates = []
    if not section["identical"]:
        gates.append(
            "batched kernel solutions are not byte-identical to the "
            "scalar solver's"
        )
    if not section["speedup"] or section["speedup"] < KERNEL_SPEEDUP_GATE:
        gates.append(
            f"batched kernel speedup {section['speedup']}x is below the "
            f"{KERNEL_SPEEDUP_GATE}x gate "
            f"(scalar {section['scalar_seconds']}s vs batched "
            f"{section['batched_seconds']}s)"
        )
    section.update(speedup_gate=KERNEL_SPEEDUP_GATE, gates=gates)
    return {"kernel": section}, gates


# ---------------------------------------------------------------------------
# suite: dist
# ---------------------------------------------------------------------------
#: Wall-time ceiling for the sharded fleet sweep (seconds). The sweep is
#: tiny; the budget mostly bounds coordinator/worker plumbing overhead —
#: interpreter startup for the spawned workers dominates it.
DIST_WALL_BUDGET_S = 120.0

#: Devices the reduced fleet sweep shards across.
DIST_SWEEP_DEVICES = ("Z7045", "ZU9CG")


def dist_setup(args: argparse.Namespace) -> tuple[dict, SimpleNamespace]:
    from repro.dse.engine import DseEngine
    from repro.fcad.flow import sweep_grid
    from repro.models.zoo import get_model

    flows = sweep_grid(
        networks=[get_model(MODEL)],
        devices=list(DIST_SWEEP_DEVICES),
        quants=["int8"],
    )
    engines = [flow.prepare()[2] for flow in flows]
    size = dict(iterations=args.iterations, population=args.population, seed=0)
    config = {
        "model": MODEL,
        "devices": list(DIST_SWEEP_DEVICES),
        "quant": "int8",
        "iterations": args.iterations,
        "population": args.population,
        "workers": 2,
    }
    serial = DseEngine.search_many(engines, **size)
    return config, SimpleNamespace(engines=engines, size=size, serial=serial)


def dist_fleet(ctx: SimpleNamespace) -> tuple[dict, list]:
    """A sweep sharded over 2 spawned workers, clean and with one killed
    mid-sweep: both merge bit-identical to the serial sweep, the killed
    worker's shard is re-leased, and the clean sweep fits its budget."""
    from repro.dist.coordinator import FleetSpec, run_fleet_sweep

    def fleet_run(worker_faults=()):
        stats: dict[str, int] = {}
        started = time.perf_counter()
        results = run_fleet_sweep(
            ctx.engines,
            FleetSpec(
                workers=2,
                token="bench",
                timeout_s=DIST_WALL_BUDGET_S,
                worker_faults=worker_faults,
            ),
            **ctx.size,
            stats=stats,
        )
        identical = all(
            fleet.best_fitness == base.best_fitness
            and fleet.best_config == base.best_config
            and fleet.history == base.history
            for fleet, base in zip(results, ctx.serial)
        )
        wall = time.perf_counter() - started
        return {
            "wall_seconds": round(wall, 3),
            "stats": stats,
            "identical_to_serial": identical,
        }

    clean = fleet_run()
    killed = fleet_run(worker_faults=("die-after-leases:1",))

    gates = []
    if not clean["identical_to_serial"]:
        gates.append("sharded sweep diverged from the serial results")
    if not killed["identical_to_serial"]:
        gates.append("sweep with a killed worker diverged from serial")
    if killed["stats"].get("releases", 0) < 1:
        gates.append(
            "the killed worker's shard was never re-leased "
            f"(stats: {killed['stats']})"
        )
    if clean["wall_seconds"] >= DIST_WALL_BUDGET_S:
        gates.append(
            f"fleet sweep took {clean['wall_seconds']:.1f}s "
            f"(budget {DIST_WALL_BUDGET_S:.0f}s)"
        )
    return {
        "serial": [
            {"best_fitness": r.best_fitness, "history": list(r.history)}
            for r in ctx.serial
        ],
        "fleet": clean,
        "fleet_with_killed_worker": killed,
        "wall_budget_seconds": DIST_WALL_BUDGET_S,
    }, gates


def dist_remote_serving(ctx: SimpleNamespace) -> tuple[dict, list]:
    """Serving through ``RemoteTransport`` with a forced mid-session
    disconnect reconnects exactly once and reports the same SLOs as
    in-process serving, bit for bit."""
    import dataclasses
    import threading

    from repro.dist.remote_transport import RemoteTransport, serve_replicas
    from repro.faults import FaultInjector, FaultPlan
    from repro.serving import ReplicaPool, canned_workload, serve_workload
    from repro.sim.runner import FrameLatencyProfile

    profile = FrameLatencyProfile(
        finish_ms=(8.0, 12.0, 16.0),
        first_frame_ms=8.0,
        steady_interval_ms=4.0,
        frequency_mhz=200.0,
    )
    workload = canned_workload(avatars=4, frames_per_avatar=6)
    inprocess = serve_workload(
        ReplicaPool(profile, replicas=2, max_batch=8), workload, policy="edf"
    )

    stop = threading.Event()
    ready = threading.Event()
    port_box: dict[str, int] = {}

    def on_ready(bound_port: int) -> None:
        port_box["port"] = bound_port
        ready.set()

    server = threading.Thread(
        target=serve_replicas,
        kwargs=dict(
            port=0,
            token="bench",
            fault=FaultInjector(FaultPlan(drop_conn_after_decodes=3)),
            ready=on_ready,
            stop=stop,
            announce=False,
        ),
        daemon=True,
    )
    server.start()
    ready.wait(10)
    transport = RemoteTransport(
        "127.0.0.1",
        port_box["port"],
        token="bench",
        backoff_s=0.01,
        backoff_max_s=0.05,
    )
    try:
        remote = serve_workload(
            ReplicaPool(profile, replicas=2, max_batch=8),
            workload,
            policy="edf",
            transport=transport,
        )
    finally:
        stop.set()
        server.join(timeout=10)
    identical = dataclasses.replace(remote, reconnects=0) == inprocess

    gates = []
    if transport.reconnects != 1:
        gates.append(
            f"forced disconnect produced {transport.reconnects} reconnects "
            f"(expected exactly 1)"
        )
    if not identical:
        gates.append(
            "remote serving report diverged from in-process after the "
            "forced reconnect"
        )
    return {
        "remote_serving": {
            "reconnects": transport.reconnects,
            "report_identical_modulo_reconnects": identical,
            "completed": remote.completed,
            "deadline_misses": remote.deadline_misses,
        }
    }, gates


# ---------------------------------------------------------------------------
# suite: serving
# ---------------------------------------------------------------------------
#: Policies served on the suite's shared workload.
POLICIES = ("fifo", "edf", "fair")

#: The busiest replica's utilization must exceed this on the shared
#: workload (~85% of pool capacity) under every policy.
UTILIZATION_FLOOR = 0.5

#: Fixed total replica budget of the mixed-vs-homogeneous comparison.
CLUSTER_BUDGET = 6

#: Saturation of the cluster benchmark workload (offered / pool capacity).
#: Slightly past capacity on purpose: this is the regime the cluster
#: architecture exists for — EDF on a shared pool starts serving stale
#: deadlines, while tiering isolates the tight tier and shedding keeps
#: the accepted share inside its budgets.
CLUSTER_SATURATION = 1.05

#: Overload factor of the load-shedding session.
SHED_OVERLOAD = 1.5

#: The chaos benchmark: a five-replica cluster whose entire latency tier
#: (1 of 5 replicas — 20% of the fleet) dies mid-session, with no
#: admission control so the damage cannot hide behind shedding. The
#: shielded run (retries + failover + replacement) must hold its
#: combined deadline-miss + failure rate within 2x of the fault-free
#: run; the unshielded run (no retries, no replacement) eats the dead
#: replica's in-flight frames as failures and then runs the rest of the
#: session past capacity, so its misses grow without bound.
CHAOS_BUDGET = 5
CHAOS_SATURATION = 0.85
CHAOS_KILL = "die-at:latency/0:250"
CHAOS_REPLACE_AFTER_MS = 80.0
#: Absolute floor on the shielded bound so a fault-free run that misses
#: nothing does not demand a literally perfect faulty run.
CHAOS_DEGRADED_FLOOR = 0.02

#: Size of the event-heap engine's scale session: one million avatars on
#: a slow periodic refresh over a two-minute diurnal session — ~1.1M
#: requests, the population the engine exists to serve in one process.
ENGINE_AVATARS = 1_000_000
ENGINE_DURATION_S = 120.0
ENGINE_AVATAR_FPS = 1.0 / 60.0
ENGINE_MAX_REPLICAS = 64

#: The engine's wall-time budget for the full scale session (seconds) and
#: the floor on simulated requests per wall-clock second.
ENGINE_WALL_BUDGET_S = 60.0
ENGINE_THROUGHPUT_FLOOR = 30_000.0


def summarize_serving(report) -> dict:
    payload = {
        "completed": report.completed,
        "latency_p50_ms": round(report.latency_p50_ms, 3),
        "latency_p95_ms": round(report.latency_p95_ms, 3),
        "latency_p99_ms": round(report.latency_p99_ms, 3),
        "latency_mean_ms": round(report.latency_mean_ms, 3),
        "deadline_misses": report.deadline_misses,
        "deadline_miss_rate": round(report.miss_rate, 4),
        "throughput_fps": round(report.throughput_fps, 2),
        "mean_batch_size": round(report.mean_batch_size, 3),
        "mean_utilization": round(report.mean_utilization, 4),
    }
    if report.router:
        payload["router"] = report.router
        payload["shed"] = report.shed
        payload["shed_rate"] = round(report.shed_rate, 4)
        payload["groups"] = {
            group.name: {
                "replicas": group.replicas,
                "policy": group.policy,
                "completed": group.completed,
                "shed": group.shed,
                "deadline_misses": group.deadline_misses,
                "miss_rate": round(group.miss_rate, 4),
                "latency_p99_ms": round(group.latency_p99_ms, 3),
            }
            for group in report.groups
        }
    return payload


def summarize_chaos(report) -> dict:
    payload = summarize_serving(report)
    payload.update(
        {
            "failed": report.failed,
            "failed_rate": round(report.failed_rate, 4),
            "retries": report.retries,
            "hedges": report.hedges,
            "failovers": report.failovers,
            "replicas_lost": report.replicas_lost,
            "replicas_replaced": report.replicas_replaced,
            "degraded_time_ms": round(report.degraded_time_ms, 3),
        }
    )
    return payload


def _design_fields(result, profile) -> dict:
    return {
        "steady_fps": round(result.fps, 2),
        "first_frame_ms": round(profile.first_frame_ms, 3),
        "steady_interval_ms": round(profile.steady_interval_ms, 3),
    }


def serving_setup(args: argparse.Namespace) -> tuple[dict, SimpleNamespace]:
    """Explore the latency design and its big-batch twin; size the
    shared workload off the latency design's measured capacity."""
    from repro.devices.fpga import get_device
    from repro.dse.space import Customization
    from repro.fcad.flow import FCad
    from repro.models.zoo import get_model
    from repro.serving import saturation_workload

    network = get_model(MODEL)

    def explore(customization=None):
        result = FCad(
            network=network,
            device=get_device(DEVICE),
            quant=QUANT,
            customization=customization,
        ).run(
            iterations=args.iterations,
            population=args.population,
            seed=0,
            workers=1,
        )
        return result, result.frame_latency_profile(frames=8)

    result, profile = explore()
    # The throughput tier of the mixed cluster: the same flow under a
    # big-batch customization (the paper's knob that actually changes the
    # architecture — here per-branch batch 2, which doubles the cold fill
    # while holding the steady rate).
    branches = len(network.output_names())
    throughput_result, throughput_profile = explore(
        Customization(
            batch_sizes=(2,) * branches, priorities=(1.0,) * branches
        )
    )
    workload = saturation_workload(
        profile,
        replicas=SERVING_REPLICAS,
        avatar_fps=SERVING_AVATAR_FPS,
        frames_per_avatar=SERVING_FRAMES,
    )
    config = {
        "model": MODEL,
        "device": DEVICE,
        "quant": QUANT,
        "iterations": args.iterations,
        "population": args.population,
        "replicas": SERVING_REPLICAS,
        "max_batch": SERVING_MAX_BATCH,
        "avatars": workload.avatars,
        "frames_per_avatar": SERVING_FRAMES,
        "avatar_fps": SERVING_AVATAR_FPS,
        "deadline_tiers_ms": list(workload.deadline_tiers),
    }
    return config, SimpleNamespace(
        result=result,
        profile=profile,
        throughput_result=throughput_result,
        throughput_profile=throughput_profile,
        workload=workload,
    )


def _serve(ctx: SimpleNamespace, policy: str):
    """The shared workload on a fresh pool of the latency design."""
    from repro.serving import serve_workload

    return serve_workload(_pool(ctx), ctx.workload, policy=policy)


def _pool(ctx: SimpleNamespace):
    from repro.serving import ReplicaPool

    return ReplicaPool(
        ctx.profile, replicas=SERVING_REPLICAS, max_batch=SERVING_MAX_BATCH
    )


def serving_design(ctx: SimpleNamespace) -> tuple[dict, list]:
    return {
        "design": _design_fields(ctx.result, ctx.profile),
        "throughput_design": _design_fields(
            ctx.throughput_result, ctx.throughput_profile
        ),
    }, []


def serving_policies(ctx: SimpleNamespace) -> tuple[dict, list]:
    """Every policy on the shared workload: full completion, a busy
    pool, ordered percentiles, EDF missing no more than FIFO, and two
    EDF sessions at one seed bit-identical."""
    from repro.serving import report_to_json

    reports, walls = {}, {}
    for policy in POLICIES:
        started = time.perf_counter()
        reports[policy] = _serve(ctx, policy)
        walls[policy] = round(time.perf_counter() - started, 3)
    fifo, edf = reports["fifo"], reports["edf"]
    deterministic = report_to_json(edf) == report_to_json(_serve(ctx, "edf"))

    gates = []
    if not deterministic:
        gates.append("serving sessions diverged at the same seed")
    for policy, report in reports.items():
        if report.completed != report.submitted:
            gates.append(
                f"{policy} completed {report.completed} of "
                f"{report.submitted} frames"
            )
        busiest = max(report.replica_utilization)
        if busiest <= UTILIZATION_FLOOR:
            gates.append(
                f"{policy} busiest replica utilization {busiest:.3f} is "
                f"not above {UTILIZATION_FLOOR}"
            )
        percentiles = (
            report.latency_p50_ms,
            report.latency_p95_ms,
            report.latency_p99_ms,
        )
        if not 0 < percentiles[0] <= percentiles[1] <= percentiles[2]:
            gates.append(
                f"{policy} latency percentiles p50/p95/p99 {percentiles} "
                f"are not positive and ordered"
            )
    if edf.deadline_misses > fifo.deadline_misses:
        gates.append(
            f"EDF missed {edf.deadline_misses} deadlines, more than "
            f"FIFO's {fifo.deadline_misses}"
        )
    return {
        "policies": {
            policy: summarize_serving(report)
            for policy, report in reports.items()
        },
        "edf_vs_fifo": {
            "miss_rate_delta": round(edf.miss_rate - fifo.miss_rate, 4),
            "p99_delta_ms": round(
                edf.latency_p99_ms - fifo.latency_p99_ms, 3
            ),
        },
        "wall_seconds": walls,
        "deterministic": deterministic,
    }, gates


def serving_identity(ctx: SimpleNamespace) -> tuple[dict, list]:
    """A one-group cluster and the event-heap engine both reproduce the
    plain EDF session on the shared workload."""
    from repro.serving import GroupSpec, serve_cluster, serve_trace

    edf = _serve(ctx, "edf")
    single_group = serve_cluster(
        [
            GroupSpec(
                "only",
                ctx.profile,
                replicas=SERVING_REPLICAS,
                policy="edf",
                batch_window_ms=2.0,
                max_batch=SERVING_MAX_BATCH,
            )
        ],
        ctx.workload,
    )
    single_group_identical = all(
        getattr(single_group, field) == getattr(edf, field)
        for field in (
            "policy", "submitted", "completed", "duration_ms",
            "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
            "latency_mean_ms", "latency_max_ms", "queue_mean_ms",
            "deadline_misses", "batches", "mean_batch_size",
            "replica_utilization", "per_avatar_p99_ms",
        )
    )
    # Latency floats agree to clock round-off; counters must be exact.
    heap = serve_trace(_pool(ctx), ctx.workload, policy="edf")
    engine_equivalent = heap.engine == "heap" and all(
        getattr(heap, field) == getattr(edf, field)
        for field in ("submitted", "completed", "deadline_misses", "batches")
    )

    gates = []
    if not single_group_identical:
        gates.append(
            "single-group cluster diverged from the plain BatchScheduler path"
        )
    if not engine_equivalent:
        gates.append(
            "event-heap engine diverged from the coroutine scheduler on "
            "the shared workload"
        )
    return {
        "single_group_cluster_identical": single_group_identical,
        "engine_equivalent": engine_equivalent,
    }, gates


def _cluster_workload(profile, saturation: float, budget: int):
    """The mixed-deadline cluster benchmark workload, sized off capacity.

    The tight tier budget sits between the latency group's and the
    throughput group's unloaded latencies (only the low-latency tier can
    honour it); tier count pins the tight fleet at 3 avatars so the
    one-replica latency tier stays inside its capacity while the
    throughput tier carries the overload.
    """
    import math

    from repro.serving import AvatarWorkload

    capacity_fps = budget * profile.steady_fps
    avatars = max(4, round(saturation * capacity_fps / 30.0))
    tight_ms = round(profile.first_frame_ms + 15.0, 1)
    tiers = (tight_ms,) + (2.0 * tight_ms,) * (math.ceil(avatars / 3) - 1)
    return AvatarWorkload(
        avatars=avatars,
        frames_per_avatar=60,
        frame_interval_ms=1000.0 / 30.0,
        deadline_ms=50.0,
        deadline_tiers=tiers,
        jitter_ms=8.0,
        seed=0,
    )


def _tiered_groups(ctx: SimpleNamespace, budget: int):
    """One EDF latency replica plus a FIFO throughput tier filling the
    rest of ``budget``."""
    from repro.serving import GroupSpec

    return [
        GroupSpec(
            "latency",
            ctx.profile,
            replicas=1,
            policy="edf",
            batch_window_ms=0.0,
            max_batch=4,
        ),
        GroupSpec(
            "throughput",
            ctx.throughput_profile,
            replicas=budget - 1,
            policy="fifo",
            batch_window_ms=4.0,
            max_batch=8,
        ),
    ]


def serving_cluster(ctx: SimpleNamespace) -> tuple[dict, list]:
    """Mixed cluster vs best homogeneous pool at a fixed replica budget,
    and load shedding at overload."""
    from repro.serving import (
        ReplicaPool,
        report_to_json,
        serve_cluster,
        serve_workload,
    )

    workload = _cluster_workload(
        ctx.profile, CLUSTER_SATURATION, CLUSTER_BUDGET
    )
    homogeneous = {}
    for design, profile in (
        ("latency", ctx.profile),
        ("throughput", ctx.throughput_profile),
    ):
        for policy in ("fifo", "edf"):
            pool = ReplicaPool(profile, replicas=CLUSTER_BUDGET, max_batch=8)
            homogeneous[f"{design}/{policy}"] = serve_workload(
                pool, workload, policy=policy
            )
    best_name = min(homogeneous, key=lambda k: homogeneous[k].miss_rate)
    best = homogeneous[best_name]

    def mixed_session(wl, shed):
        return serve_cluster(
            _tiered_groups(ctx, CLUSTER_BUDGET),
            wl,
            router="deadline",
            admission=shed,
        )

    mixed = mixed_session(workload, shed=True)
    mixed_again = mixed_session(workload, shed=True)
    mixed_noshed = mixed_session(workload, shed=None)
    deterministic = report_to_json(mixed) == report_to_json(mixed_again)

    overload = _cluster_workload(ctx.profile, SHED_OVERLOAD, CLUSTER_BUDGET)
    over_shed = mixed_session(overload, shed=True)
    over_noshed = mixed_session(overload, shed=None)

    latency_group = next(
        group for group in mixed.groups if group.name == "latency"
    )
    p99_bound_ms = 2.0 * max(overload.deadline_tiers)

    gates = []
    if mixed.miss_rate >= best.miss_rate:
        gates.append(
            f"mixed cluster miss rate {mixed.miss_rate:.4f} is not below "
            f"the best homogeneous pool {best_name} ({best.miss_rate:.4f})"
        )
    if latency_group.miss_rate > 0.05:
        gates.append(
            f"deadline-tiered latency group missed "
            f"{latency_group.miss_rate:.1%} of its tight-budget frames"
        )
    if over_shed.latency_p99_ms > p99_bound_ms:
        gates.append(
            f"{SHED_OVERLOAD}x overload with shedding: accepted p99 "
            f"{over_shed.latency_p99_ms:.1f} ms exceeds the "
            f"{p99_bound_ms:.0f} ms bound"
        )
    if over_shed.shed_rate <= 0.0:
        gates.append("overload session shed nothing")
    if over_noshed.latency_p99_ms <= over_shed.latency_p99_ms:
        gates.append("shedding did not improve accepted p99 at overload")
    if not deterministic:
        gates.append("mixed-cluster sessions diverged at the same seed")

    return {
        "cluster": {
            "replica_budget": CLUSTER_BUDGET,
            "saturation": CLUSTER_SATURATION,
            "workload": {
                "avatars": workload.avatars,
                "frames_per_avatar": workload.frames_per_avatar,
                "deadline_tiers_ms": [
                    workload.deadline_tiers[0],
                    workload.deadline_tiers[-1],
                ],
                "tight_avatars": sum(
                    1
                    for avatar in range(workload.avatars)
                    if workload.deadline_for(avatar)
                    == workload.deadline_tiers[0]
                ),
            },
            "homogeneous": {
                name: summarize_serving(report)
                for name, report in homogeneous.items()
            },
            "best_homogeneous": best_name,
            "mixed": summarize_serving(mixed),
            "mixed_no_shed": summarize_serving(mixed_noshed),
            "overload": {
                "factor": SHED_OVERLOAD,
                "avatars": overload.avatars,
                "p99_bound_ms": p99_bound_ms,
                "with_shedding": summarize_serving(over_shed),
                "without_shedding": summarize_serving(over_noshed),
            },
            "mixed_vs_best_homogeneous": {
                "miss_rate_delta": round(mixed.miss_rate - best.miss_rate, 4),
                "p99_delta_ms": round(
                    mixed.latency_p99_ms - best.latency_p99_ms, 3
                ),
            },
            "deterministic": deterministic,
            "gates": gates,
        }
    }, gates


def serving_chaos(ctx: SimpleNamespace) -> tuple[dict, list]:
    """Chaos resilience: 20% replica loss, shielded vs unshielded, and
    the event-heap engine's counters matching the coroutine scheduler's
    under the same faults."""
    from repro.serving import (
        ChaosPlan,
        RecoveryPolicy,
        report_to_json,
        serve_cluster,
        serve_trace,
        trace_from_workload,
    )

    workload = _cluster_workload(ctx.profile, CHAOS_SATURATION, CHAOS_BUDGET)
    groups = _tiered_groups(ctx, CHAOS_BUDGET)
    chaos = ChaosPlan.parse(CHAOS_KILL)
    shielded_policy = RecoveryPolicy(
        max_retries=2,
        breaker_threshold=1,
        replace_after_ms=CHAOS_REPLACE_AFTER_MS,
    )
    unshielded_policy = RecoveryPolicy(max_retries=0, breaker_threshold=0)

    def session(plan, recovery):
        return serve_cluster(
            groups,
            workload,
            router="deadline",
            chaos=plan,
            recovery=recovery,
        )

    fault_free = session(None, None)
    shielded = session(chaos, shielded_policy)
    shielded_again = session(chaos, shielded_policy)
    unshielded = session(chaos, unshielded_policy)
    heap = serve_trace(
        groups,
        trace_from_workload(workload),
        router="deadline",
        chaos=chaos,
        recovery=shielded_policy,
    )

    def degraded(report):
        return report.miss_rate + report.failed_rate

    bound = max(2.0 * degraded(fault_free), CHAOS_DEGRADED_FLOOR)
    deterministic = report_to_json(shielded) == report_to_json(shielded_again)
    engine_equivalent = all(
        getattr(heap, field) == getattr(shielded, field)
        for field in (
            "submitted", "completed", "failed", "shed", "deadline_misses",
            "retries", "hedges", "failovers", "replicas_lost",
            "replicas_replaced",
        )
    )

    gates = []
    if degraded(shielded) > bound:
        gates.append(
            f"shielded run degraded to miss+fail {degraded(shielded):.4f} "
            f"at {1 / CHAOS_BUDGET:.0%} replica loss (bound {bound:.4f})"
        )
    if degraded(unshielded) <= degraded(shielded):
        gates.append(
            f"unshielded run (miss+fail {degraded(unshielded):.4f}) did "
            f"not collapse past the shielded run "
            f"({degraded(shielded):.4f}) — the recovery stack bought "
            f"nothing"
        )
    if unshielded.failed <= 0:
        gates.append("unshielded run failed no frames at 20% replica loss")
    if shielded.retries <= 0:
        gates.append("shielded run never retried a failed frame")
    if shielded.failovers <= 0:
        gates.append(
            "shielded run never failed traffic over to the surviving group"
        )
    if shielded.replicas_replaced <= 0:
        gates.append("shielded run never replaced its dead replica")
    if shielded.replicas_lost != 1:
        gates.append(
            f"shielded run lost {shielded.replicas_lost} replicas "
            f"(chaos plan kills exactly 1)"
        )
    for name, report in (
        ("fault-free", fault_free),
        ("shielded", shielded),
        ("unshielded", unshielded),
    ):
        if report.completed + report.shed + report.failed != report.submitted:
            gates.append(
                f"{name} chaos run lost frames "
                f"(completed + shed + failed != submitted)"
            )
    if not deterministic:
        gates.append("shielded chaos sessions diverged at the same seed")
    if not engine_equivalent:
        gates.append(
            "event-heap engine diverged from the coroutine scheduler "
            "under faults"
        )

    return {
        "chaos": {
            "replica_budget": CHAOS_BUDGET,
            "saturation": CHAOS_SATURATION,
            "chaos": CHAOS_KILL,
            "replica_loss_fraction": round(1.0 / CHAOS_BUDGET, 2),
            "recovery": {
                "max_retries": shielded_policy.max_retries,
                "breaker_threshold": shielded_policy.breaker_threshold,
                "replace_after_ms": shielded_policy.replace_after_ms,
            },
            "fault_free": summarize_chaos(fault_free),
            "shielded": summarize_chaos(shielded),
            "unshielded": summarize_chaos(unshielded),
            "degraded_bound": round(bound, 4),
            "deterministic": deterministic,
            "engine_equivalent": engine_equivalent,
            "gates": gates,
        }
    }, gates


def serving_engine(ctx: SimpleNamespace) -> tuple[dict, list]:
    """The event-heap engine at population scale, with autoscaling."""
    from repro.serving import AutoscalePolicy, make_trace, serve_trace
    from repro.serving.slo import report_to_json

    def session():
        started = time.perf_counter()
        trace = make_trace(
            ENGINE_AVATARS,
            ENGINE_DURATION_S,
            shape="diurnal",
            avatar_fps=ENGINE_AVATAR_FPS,
            deadline_ms=200.0,
            jitter_ms=400.0,
            seed=42,
        )
        report = serve_trace(
            ctx.result.serving_group(
                name="fleet", replicas=2, policy="edf", profile=ctx.profile
            ),
            trace,
            admission=True,
            autoscale=AutoscalePolicy(
                check_interval_ms=1000.0,
                warmup_ms=5000.0,
                min_replicas=2,
                max_replicas=ENGINE_MAX_REPLICAS,
            ),
        )
        return report, time.perf_counter() - started

    report, wall = session()
    replay, _ = session()
    deterministic = report_to_json(report) == report_to_json(replay)
    rate = report.submitted / wall if wall > 0 else 0.0

    gates = []
    if report.submitted < 1_000_000:
        gates.append(
            f"scale session submitted only {report.submitted:,} requests "
            f"(needs >= 1,000,000)"
        )
    ran = (report.engine, report.shape, report.avatars)
    if ran != ("heap", "diurnal", ENGINE_AVATARS):
        gates.append(
            f"scale session ran (engine, shape, avatars) {ran}, not "
            f"('heap', 'diurnal', {ENGINE_AVATARS})"
        )
    if wall >= ENGINE_WALL_BUDGET_S:
        gates.append(
            f"scale session took {wall:.1f}s "
            f"(budget {ENGINE_WALL_BUDGET_S:.0f}s)"
        )
    if rate < ENGINE_THROUGHPUT_FLOOR:
        gates.append(
            f"engine served {rate:,.0f} simulated req/s "
            f"(floor {ENGINE_THROUGHPUT_FLOOR:,.0f})"
        )
    if report.completed + report.shed != report.submitted:
        gates.append("scale session lost requests (completed + shed != submitted)")
    if report.scale_ups <= 0:
        gates.append("autoscaler never scaled up under the diurnal peak")
    if report.peak_replicas <= 2:
        gates.append(
            f"autoscaler peaked at {report.peak_replicas} replicas, never "
            f"above its 2-replica floor"
        )
    if not deterministic:
        gates.append("engine sessions diverged at the same seed")

    return {
        "engine": {
            "avatars": ENGINE_AVATARS,
            "duration_s": ENGINE_DURATION_S,
            "shape": report.shape,
            "submitted": report.submitted,
            "completed": report.completed,
            "shed": report.shed,
            "deadline_misses": report.deadline_misses,
            "scale_ups": report.scale_ups,
            "scale_downs": report.scale_downs,
            "peak_replicas": report.peak_replicas,
            "max_replicas": ENGINE_MAX_REPLICAS,
            # At the cap the autoscaler had no headroom left and admission
            # shed the rest: the submitted rate counts those cheap sheds,
            # the completed rate only what was served.
            "at_cap": report.peak_replicas >= ENGINE_MAX_REPLICAS,
            "wall_seconds": round(wall, 3),
            "simulated_requests_per_second": round(rate),
            "completed_per_second": round(report.completed / wall)
            if wall > 0
            else 0,
            "deterministic": deterministic,
            "gates": gates,
        }
    }, gates


# ---------------------------------------------------------------------------
# registry and CLI
# ---------------------------------------------------------------------------
SUITES: dict[str, Suite] = {
    "dse": Suite(
        benchmark="dse_convergence",
        setup=dse_setup,
        sections={
            "convergence": dse_convergence,
            "kernel": dse_kernel,
        },
        trajectory=(
            ("serial wall s", "serial.wall_seconds"),
            ("parallel wall s", "parallel.wall_seconds"),
            ("speedup", "speedup"),
            ("cache hit rate", "parallel.cache_hit_rate"),
        ),
    ),
    "serving": Suite(
        benchmark="avatar_serving",
        setup=serving_setup,
        sections={
            "design": serving_design,
            "policies": serving_policies,
            "identity": serving_identity,
            "cluster": serving_cluster,
            "chaos": serving_chaos,
            "engine": serving_engine,
        },
        trajectory=(
            ("edf p99 ms", "policies.edf.latency_p99_ms"),
            ("edf miss rate", "policies.edf.deadline_miss_rate"),
            ("mixed cluster miss rate", "cluster.mixed.deadline_miss_rate"),
            ("shielded chaos failed rate", "chaos.shielded.failed_rate"),
            ("engine wall s", "engine.wall_seconds"),
            ("engine sim req per s", "engine.simulated_requests_per_second"),
            ("engine completed per s", "engine.completed_per_second"),
        ),
    ),
    "dist": Suite(
        benchmark="distributed_fleet",
        setup=dist_setup,
        sections={
            "fleet": dist_fleet,
            "remote_serving": dist_remote_serving,
        },
        trajectory=(
            ("fleet wall s", "fleet.wall_seconds"),
            ("killed-worker fleet wall s", "fleet_with_killed_worker.wall_seconds"),
            ("fleet leases", "fleet.stats.leases"),
        ),
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        default="dse",
        choices=list(SUITES),
        help="which benchmark smoke to run (default: dse)",
    )
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--population", type=int, default=40)
    parser.add_argument(
        "--workers",
        type=int,
        default=int(
            os.environ.get("FCAD_BENCH_WORKERS")
            or max(1, min(4, os.cpu_count() or 1))
        ),
        help="workers for the dse suite's parallel run (default: "
        "$FCAD_BENCH_WORKERS if set, else up to 4)",
    )
    parser.add_argument(
        "--out", help="output path (default: BENCH_<suite>.json)"
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = f"BENCH_{args.suite}.json"
    return run_suite(args.suite, args)


if __name__ == "__main__":
    sys.exit(main())
