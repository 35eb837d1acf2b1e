"""Output checks and metric arithmetic for one benchmark run.

End-to-end metrics come from untraced passes, per-layer metrics from
traced ones (see :mod:`spans`). ``perfbench/layers.json`` says which
end-to-end metric and workload each per-layer metric should move.
"""

from __future__ import annotations

import statistics
from typing import Iterable

from spans import SpanTotals
from workloads import Outcome

_NO_SPAN = SpanTotals(0, 0.0, 0.0)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(values: Iterable[float]) -> dict:
    """Median, quartiles and sample count of a list of samples."""
    values = list(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def check_outcome(
    outcome: Outcome, first: Outcome | None, reference: dict | None
) -> list[str]:
    """Every output check one operation must pass; returns the failures.

    - each serving session accounts for every request:
      ``completed + shed + failed == submitted``;
    - a second operation at the same seed gives byte-identical
      ``result_to_json`` / ``report_to_json`` (compared by digest);
    - the simulated outputs match the reference recorded for this
      workload and seed, when there is one: best fitness per search and
      the digest of every result and report.
    """
    errors = []
    for report in outcome.reports:
        settled = report.completed + report.shed + report.failed
        if settled != report.submitted:
            errors.append(
                f"completed + shed + failed = {settled} != submitted = {report.submitted}"
            )
    if first is not None and outcome.digest != first.digest:
        errors.append("output differs from the first pass at the same seed")
    if reference is not None:
        if outcome.fitness != reference["fitness"]:
            errors.append(
                f"best fitness {outcome.fitness} != reference {reference['fitness']}"
            )
        if outcome.digest != reference["digest"]:
            errors.append("output digest differs from the reference")
    return errors


def work(outcome: Outcome) -> int:
    """The operation's unit of work: requests served, else candidates scored."""
    if outcome.reports:
        return sum(r.submitted for r in outcome.reports)
    return outcome.candidates


def user_metrics(outcome: Outcome, wall_s: float) -> dict[str, tuple[float, str]]:
    """The workload-specific end-to-end metrics of one operation.

    DSE workloads report candidates per second and best fitness; serving
    workloads report request rates and simulated SLOs. A refused or
    failed request counts as missing its deadline.
    """
    metrics: dict[str, tuple[float, str]] = {}
    if outcome.reports:
        submitted = sum(r.submitted for r in outcome.reports)
        completed = sum(r.completed for r in outcome.reports)
        missed = sum(r.deadline_misses + r.shed + r.failed for r in outcome.reports)
        metrics["requests_per_s"] = (submitted / wall_s, "1/s")
        metrics["completed_per_s"] = (completed / wall_s, "1/s")
        metrics["sim_p99_ms"] = (max(r.latency_p99_ms for r in outcome.reports), "ms")
        metrics["sim_miss_rate"] = (ratio(missed, submitted), "ratio")
    else:
        metrics["candidates_per_s"] = (outcome.candidates / wall_s, "1/s")
        for label, fitness in outcome.fitness.items():
            metrics[f"best_fitness.{label}"] = (fitness, "score")
    return metrics


def layer_metrics(
    totals: dict[str, SpanTotals], counts: dict[str, float], outcome: Outcome
) -> dict[str, float]:
    """Every per-layer metric of one traced operation.

    Span times come from the tracer; counters the program already keeps
    (``DseResult``, ``ServingReport``) come from the outcome. A layer the
    workload never enters reads zero.
    """

    def span(name: str) -> SpanTotals:
        return totals.get(name, _NO_SPAN)

    dse = outcome.dse
    reports = outcome.reports
    lookups = sum(r.cache_lookups for r in dse)
    stage_lookups = sum(r.stage_lookups for r in dse)
    bucket_hits = sum(r.cache_hits for r in dse)
    stage_hits = sum(r.stage_hits for r in dse)
    rerank_calls = sum(r.rerank_invocations for r in dse)
    rerank_hits = sum(
        s.cache_hits for r in dse for s in r.oracle_stats if s.name != "analytical"
    )
    buckets = counts.get("dse.kernel.buckets", 0)
    sim = span("sim")
    steps = counts.get("sim.steps", 0)
    admission = span("serving.admission")
    batches = sum(r.batches for r in reports)
    hedges = sum(r.hedges for r in reports)
    return {
        "dse.search.busy_s": span("dse.search").busy_s,
        "dse.crossbranch.self_s": span("dse.crossbranch").self_s,
        "dse.worker.calls": span("dse.worker").calls,
        "dse.worker.self_s": span("dse.worker").self_s,
        "dse.worker.dedup_ratio": ratio(lookups - buckets, lookups),
        "dse.kernel.calls": span("dse.kernel").calls,
        "dse.kernel.buckets": buckets,
        "dse.kernel.busy_s": span("dse.kernel").busy_s,
        "dse.kernel.ladder_s": sum(r.ladder_seconds for r in dse),
        "dse.kernel.growth_s": sum(r.growth_seconds for r in dse),
        "dse.kernel.measure_s": sum(r.measure_seconds for r in dse),
        "dse.evaluations": sum(r.evaluations for r in dse),
        "dse.cache.busy_s": sum(r.cache_seconds for r in dse),
        "dse.cache.hit_rate": ratio(bucket_hits + stage_hits, lookups + stage_lookups),
        "dse.cache.bucket_hit_rate": ratio(bucket_hits, lookups),
        "dse.cache.stage_hit_rate": ratio(stage_hits, stage_lookups),
        "dse.objective.rerank_calls": rerank_calls,
        "dse.objective.rerank_hit_rate": ratio(rerank_hits, rerank_calls + rerank_hits),
        "dse.objective.rerank_busy_s": span("dse.objective.rerank").busy_s,
        "fcad.prepare.busy_s": span("fcad.prepare").busy_s,
        "sim.calls": sim.calls,
        "sim.busy_s": sim.busy_s,
        "sim.steps": steps,
        "sim.cycles": counts.get("sim.cycles", 0.0),
        "sim.steps_per_s": ratio(steps, sim.busy_s),
        "serving.replay.calls": span("serving.replay").calls,
        "serving.replay.busy_s": span("serving.replay").busy_s,
        "serving.traffic.busy_s": span("serving.traffic").busy_s,
        "serving.traffic.requests": counts.get("serving.traffic.requests", 0),
        "serving.engine.busy_s": span("serving.engine").busy_s,
        "serving.engine.self_s": span("serving.engine").self_s,
        "serving.engine.batches": batches,
        "serving.engine.mean_batch_size": ratio(
            sum(r.batches * r.mean_batch_size for r in reports), batches
        ),
        "serving.engine.scale_ups": sum(r.scale_ups for r in reports),
        "serving.engine.peak_replicas": max((r.peak_replicas for r in reports), default=0),
        "serving.engine.at_cap": float(
            outcome.replica_cap > 0
            and any(r.peak_replicas >= outcome.replica_cap for r in reports)
        ),
        "serving.admission.calls": admission.calls,
        "serving.admission.busy_s": admission.busy_s,
        "serving.admission.admit_ratio": ratio(
            counts.get("serving.admission.admitted", 0), admission.calls
        ),
        "serving.router.calls": span("serving.router").calls,
        "serving.router.busy_s": span("serving.router").busy_s,
        "serving.chaos.retries": sum(r.retries for r in reports),
        "serving.chaos.hedges": hedges,
        "serving.chaos.hedge_win_rate": ratio(sum(r.hedge_wins for r in reports), hedges),
        "serving.chaos.failovers": sum(r.failovers for r in reports),
        "serving.chaos.replicas_lost": sum(r.replicas_lost for r in reports),
        "serving.chaos.replicas_replaced": sum(r.replicas_replaced for r in reports),
        "serving.chaos.failed": sum(r.failed for r in reports),
    }
