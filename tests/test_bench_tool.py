"""The bench driver in ``tools/bench_to_json.py`` on a stub suite.

Runs no real suite: a two-section stub checks payload assembly, gate
reporting, that later sections still run after a failed gate, and that
the trajectory is compared only against a committed file that measured
the same benchmark and config.
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
