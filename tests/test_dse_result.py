"""The DSE result JSON codec: round trips, old payloads, bad payloads."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.config import ConfigError
from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.dse.engine import DseEngine
from repro.dse.result import (
    RESULT_FORMAT_VERSION,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.dse.space import Customization
from repro.quant.schemes import INT8
from tests.conftest import make_tiny_decoder

FIXTURES = Path(__file__).parent / "data"
PINNED = FIXTURES / "dse_result_pre_surrogate.json"


def _pinned_payload() -> dict:
    return json.loads(PINNED.read_text())


def test_round_trip():
    plan = build_pipeline_plan(make_tiny_decoder())
    result = DseEngine(
        plan=plan,
        budget=get_device("Z7045").budget(),
        customization=Customization.uniform(plan.num_branches),
        quant=INT8,
    ).search(iterations=8, population=24, seed=0)
    payload = result_to_dict(result)
    clone = result_from_dict(payload)
    assert clone == result
    # And the dict shape is JSON-stable.
    assert result_to_dict(clone) == payload
    assert result_from_json(result_to_json(result)) == result


def test_payload_has_no_surrogate_key():
    """Neither a fresh search nor the pinned archive carries the removed
    surrogate filter's stats object."""
    result = result_from_json(PINNED.read_text())
    assert "surrogate_stats" not in _pinned_payload()
    assert "surrogate_stats" not in result_to_dict(result)
    assert not hasattr(result, "surrogate_stats")


def test_pinned_payload_loads():
    """An archived payload written by an older codec keeps loading."""
    result = result_from_json(PINNED.read_text())
    assert result.best_fitness > 0
    assert result.iterations == len(result.history) == 3
    # Round-trips losslessly through the current codec.
    assert result_from_json(result_to_json(result)) == result


def test_surrogate_stats_key_is_ignored():
    """Payloads from searches that ran the removed surrogate filter load
    exactly as they would without its stats object."""
    payload = _pinned_payload()
    with_stats = {
        **payload,
        "surrogate_stats": {
            "mode": "prune",
            "pruned_candidates": 12,
            "pruned_buckets": 30,
            "solved_buckets": 41,
            "predictions": 64,
            "false_prunes": 0,
            "audited": 7,
            "model_samples": 96,
            "refits": 3,
            "fit_seconds": 0.004,
        },
    }
    result = result_from_dict(with_stats)
    assert result == result_from_dict(payload)
    assert "surrogate_stats" not in result_to_dict(result)


def test_unknown_version_raises():
    payload = _pinned_payload()
    payload["version"] = RESULT_FORMAT_VERSION + 1
    with pytest.raises(ConfigError, match="version"):
        result_from_dict(payload)


def test_malformed_payload_raises():
    with pytest.raises(ConfigError, match="malformed"):
        result_from_dict({"version": RESULT_FORMAT_VERSION})
