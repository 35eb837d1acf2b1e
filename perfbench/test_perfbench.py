"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench -q

Each workload, shrunk, must print every metric BENCHMARK.json names with
its unit, untraced and traced; a corrupted report or fitness must fail
the output check; and the command must refuse to run without the
program's source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from run import ROOT, SRC, load_json, measure, result_line

sys.path.insert(0, str(SRC))

from metrics import check_outcome  # noqa: E402
from spans import Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS, Explore, Pipeline1M, Rerank, ServeChaos  # noqa: E402

BENCH = load_json(ROOT / "BENCHMARK.json")

SMALL = {
    "explore": Explore(devices=("Z7045",), iterations=2, population=8),
    "rerank": Rerank(iterations=1, population=4, top_k=1),
    "pipeline_1m": Pipeline1M(
        iterations=1, population=4, avatars=3000, duration_s=20.0, max_replicas=4
    ),
    "serve_chaos": ServeChaos(iterations=1, population=4, avatars=6, duration_s=2.0),
}


def test_every_workload_has_a_reduced_size():
    assert set(SMALL) == set(WORKLOADS) == {w["name"] for w in BENCH["workloads"]}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_prints_every_metric_with_its_unit(name, trace):
    record = measure(SMALL[name], seed=3, seconds=0.0, trace=trace,
                     reference=None)
    result = result_line(record, BENCH, trace)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert result["correct"], record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert json.loads(json.dumps(result)) == result
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def small_outcome(name: str):
    workload = SMALL[name]
    return workload.run(workload.setup(5), 5)


def test_corrupted_report_is_caught():
    outcome = small_outcome("serve_chaos")
    assert check_outcome(outcome, outcome, None) == []
    report = outcome.reports[0]
    lossy = dataclasses.replace(
        outcome, reports=(dataclasses.replace(report, completed=report.completed - 1),)
    )
    assert any("submitted" in e for e in check_outcome(lossy, outcome, None))
    drifted = dataclasses.replace(outcome, digest="0" * 64)
    assert any("first pass" in e for e in check_outcome(drifted, outcome, None))


def test_corrupted_fitness_is_caught():
    outcome = small_outcome("explore")
    reference = {"fitness": dict(outcome.fitness), "digest": outcome.digest}
    assert check_outcome(outcome, None, reference) == []
    label = next(iter(outcome.fitness))
    reference["fitness"][label] = outcome.fitness[label] * (1 + 1e-12)
    assert any("best fitness" in e for e in check_outcome(outcome, None, reference))
    assert any(
        "reference" in e
        for e in check_outcome(outcome, None, {**reference, "digest": "f" * 64})
    )


def test_failed_operation_fails_the_run():
    class Corrupting(Explore):
        calls = 0

        def run(self, flows, seed):
            Corrupting.calls += 1
            outcome = super().run(flows, seed)
            if Corrupting.calls == 2:
                outcome = dataclasses.replace(outcome, digest="0" * 64)
            return outcome

    record = measure(Corrupting(devices=("Z7045",), iterations=2, population=8),
                     seed=1, seconds=0.0, trace=False, reference=None)
    result = result_line(record, BENCH, False)
    assert result["failed"] == 1 and not result["correct"]
    assert record["metrics"]["failed_share"]["median"] == 1 / result["attempted"]


def test_chaos_workload_exercises_every_recovery_path():
    workload = ServeChaos()
    report = workload.run(workload.setup(0), 0).reports[0]
    assert report.retries and report.hedges and report.failovers
    assert report.replicas_replaced and report.replicas_lost


def test_self_time_subtracts_child_spans():
    tracer = Tracer()

    def child(n):
        return sum(range(n))

    traced_child = tracer.wrap("child", child)

    def parent():
        return traced_child(200_000) + traced_child(100_000)

    tracer.wrap("parent", parent)()
    totals = tracer.totals()
    assert totals["child"].calls == 2 and totals["parent"].calls == 1
    assert totals["parent"].self_s == pytest.approx(
        totals["parent"].busy_s - totals["child"].busy_s
    )
    assert totals["child"].self_s == pytest.approx(totals["child"].busy_s)


def test_instrumented_restores_every_entry_point():
    from spans import entry_points

    before = [vars(owner)[attr] for owner, attr, _, _ in entry_points()]
    with instrumented(Tracer()):
        assert [vars(o)[a] for o, a, _, _ in entry_points()] != before
    assert [vars(owner)[attr] for owner, attr, _, _ in entry_points()] == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "explore",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
