"""The bench driver in ``tools/bench_to_json.py`` on a stub suite.

Runs no real suite: a two-section stub checks payload assembly, gate
reporting, that later sections still run after a failed gate, and that
the trajectory is compared only against a committed file that measured
the same benchmark and config. One tiny serial convergence run checks
the ``dse/convergence`` gate on the committed per-search fitness.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_to_json.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_to_json", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture
def run_stub(tool, tmp_path, monkeypatch):
    """Register a stub suite rooted at ``tmp_path``; return a runner."""

    def failing(ctx):
        return {"beta": 2}, ["beta is not 3", tool.Skip("gamma", "not here")]

    def passing(ctx):
        return {"alpha": {"value": 1.0}}, []

    def crashing(ctx):
        raise RuntimeError("boom")

    suite = tool.Suite(
        benchmark="stub_bench",
        setup=lambda args: ({"size": args.iterations}, SimpleNamespace()),
        sections={"failing": failing, "passing": passing, "crashing": crashing},
        trajectory=(("alpha value", "alpha.value"),),
    )
    monkeypatch.setitem(tool.SUITES, "stub", suite)
    monkeypatch.setattr(tool, "REPO", tmp_path)
    out = tmp_path / "elsewhere" / "out.json"
    out.parent.mkdir()

    def run():
        code = tool.main(
            ["--suite", "stub", "--iterations", "3", "--out", str(out)]
        )
        return code, json.loads(out.read_text())

    return run


def test_failed_gates_are_reported_and_later_sections_still_run(
    run_stub, tmp_path, capsys
):
    code, payload = run_stub()
    printed = capsys.readouterr().out
    assert code == 1
    assert payload["benchmark"] == "stub_bench"
    assert payload["config"] == {"size": 3}
    assert "environment" in payload
    assert payload["beta"] == 2 and payload["alpha"] == {"value": 1.0}
    assert "ERROR: stub/failing: beta is not 3" in printed
    assert "ERROR: stub/crashing: raised RuntimeError('boom')" in printed
    assert "stub/passing: ok" in printed
    assert payload["gates"] == [
        "failing: beta is not 3",
        "crashing: raised RuntimeError('boom')",
    ]
    assert payload["gate_skips"] == [{"gate": "gamma", "reason": "not here"}]
    assert "baseline_comparison" not in payload
    smoke = (tmp_path / "benchmarks" / "out" / "stub-smoke.txt").read_text()
    assert "ERROR: stub/failing: beta is not 3" in smoke


@pytest.mark.parametrize(
    "committed, compared",
    [
        ({"benchmark": "stub_bench", "config": {"size": 3}}, True),
        ({"benchmark": "stub_bench", "config": {"size": 4}}, False),
        ({"benchmark": "other_bench", "config": {"size": 3}}, False),
    ],
)
def test_trajectory_only_against_a_matching_committed_file(
    run_stub, tmp_path, capsys, committed, compared
):
    """The baseline is the committed ``BENCH_<suite>.json`` even when
    ``--out`` points elsewhere, and only if it measured this run."""
    committed = dict(committed, alpha={"value": 0.5})
    (tmp_path / "BENCH_stub.json").write_text(json.dumps(committed))
    _, payload = run_stub()
    printed = capsys.readouterr().out
    if compared:
        assert payload["baseline_comparison"] == {
            "alpha_value": {"baseline": 0.5, "now": 1.0}
        }
        assert "perf trajectory vs committed BENCH_stub.json" in printed
        assert "alpha value: 0.5 -> 1.0 (+100.0%)" in printed
    else:
        assert "baseline_comparison" not in payload
        assert "no comparable committed BENCH_stub.json" in printed


@pytest.fixture(scope="module")
def dse_ctx(tool):
    """A one-search serial convergence run, as ``dse_setup`` builds it."""
    run_kwargs = dict(
        device_name="ZU9CG",
        quant_name="int8",
        searches=1,
        iterations=1,
        population=4,
        objective="paper",
    )
    serial, wall = tool._timed_convergence(run_kwargs, workers=1)
    return SimpleNamespace(
        run_kwargs=run_kwargs, workers=1, serial=serial, serial_wall=wall
    )


def _baseline_gates(gates):
    # The speedup gate compares two wall times and may fire on any run.
    return [g for g in gates if isinstance(g, str) and "baseline" in g]


def test_serial_run_is_gated_on_the_committed_fitness(tool, dse_ctx):
    fitness = [s.best_fitness for s in dse_ctx.serial.searches]

    dse_ctx.baseline = {"serial": {"best_fitness_per_search": fitness}}
    payload, gates = tool.dse_convergence(dse_ctx)
    assert payload["serial_identical_to_baseline"] is True
    assert not _baseline_gates(gates)

    drifted = [f + 1.0 for f in fitness]
    dse_ctx.baseline = {"serial": {"best_fitness_per_search": drifted}}
    payload, gates = tool.dse_convergence(dse_ctx)
    assert payload["serial_identical_to_baseline"] is False
    assert len(_baseline_gates(gates)) == 1

    dse_ctx.baseline = None
    payload, gates = tool.dse_convergence(dse_ctx)
    assert payload["serial_identical_to_baseline"] is None
    assert tool.Skip(
        "serial-identity-to-baseline", "no comparable committed baseline"
    ) in gates


def test_dse_suite_runs_convergence_then_kernel(tool):
    assert list(tool.SUITES["dse"].sections) == ["convergence", "kernel"]
