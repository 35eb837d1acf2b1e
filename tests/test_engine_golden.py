"""Golden report digests for the event-heap engine.

Each case serves one small seeded trace through :func:`serve_trace` and
hashes the report's canonical JSON (:func:`report_to_json`). The digests
in ``tests/data/engine_golden.json`` pin the engine's output bit for bit
across the configuration matrix — policy x admission x autoscale x
cluster shape x chaos, plus the bare-pool front door — so a change to
the engine's hot loop cannot move a single float without failing here.

Regenerate the fixture only when a change is *meant* to alter reports::

    PYTHONPATH=src python tests/test_engine_golden.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.serving import (
    AdmissionControl,
    AutoscalePolicy,
    ChaosPlan,
    GroupSpec,
    RecoveryPolicy,
    ReplicaPool,
    make_trace,
    report_to_json,
    serve_trace,
)
from repro.sim.runner import FrameLatencyProfile

FIXTURE = Path(__file__).parent / "data" / "engine_golden.json"

FAST = FrameLatencyProfile(
    finish_ms=(6.0, 8.0),
    first_frame_ms=6.0,
    steady_interval_ms=2.0,
    frequency_mhz=200.0,
)
BIG = FrameLatencyProfile(
    finish_ms=(8.0, 12.0, 16.0),
    first_frame_ms=8.0,
    steady_interval_ms=4.0,
    frequency_mhz=200.0,
)

POLICIES = ("fifo", "edf", "fair")
ADMISSIONS = {
    "off": None,
    "default": True,
    "unbounded": AdmissionControl(max_queue_per_replica=None),
}
AUTOSCALES = {
    "off": None,
    "on": AutoscalePolicy(
        check_interval_ms=250.0, warmup_ms=400.0, min_replicas=1, max_replicas=6
    ),
}
SHAPES = ("1", "2:least-loaded", "2:deadline")
CHAOS = {
    "off": (None, None),
    "on": (
        ChaosPlan.parse(
            "crash-at:2:5,crash-at:big/0:3,stall:1:4:30,degrade:big/1:2:1.5,"
            "die-at:fast/0:1500,die-at:fast/1:1500"
        ),
        RecoveryPolicy(
            max_retries=1, hedge=True, breaker_threshold=2, replace_after_ms=200.0
        ),
    ),
}


@lru_cache(maxsize=1)
def _trace():
    # A flash crowd over three deadline tiers: idle stretches, a spike
    # past capacity (shedding, hedging, autoscaling) and the drain.
    return make_trace(
        120,
        3.0,
        shape="flash",
        avatar_fps=12.0,
        deadline_tiers=(15.0, 40.0, 120.0),
        jitter_ms=20.0,
        seed=3,
    )


def _groups(policy: str, shape: str) -> list[GroupSpec]:
    if shape == "1":
        return [
            GroupSpec(
                "fast", FAST, replicas=2, policy=policy,
                batch_window_ms=2.0, max_batch=4,
            )
        ]
    return [
        GroupSpec(
            "fast", FAST, replicas=2, policy=policy,
            batch_window_ms=1.0, max_batch=4,
        ),
        GroupSpec(
            "big", BIG, replicas=2, policy=policy,
            batch_window_ms=4.0, max_batch=8,
        ),
    ]


def cases() -> list[str]:
    """Every case id, in fixture order."""
    cluster = [
        f"policy={p}|admission={a}|autoscale={s}|groups={g}|chaos={c}"
        for p, a, s, g, c in itertools.product(
            POLICIES, ADMISSIONS, AUTOSCALES, SHAPES, CHAOS
        )
    ]
    pool = [
        f"policy={p}|pool|chaos={c}" for p, c in itertools.product(POLICIES, CHAOS)
    ]
    return cluster + pool


def run_case(case: str):
    """Serve the golden trace under one case's configuration."""
    fields = dict(
        part.split("=", 1) if "=" in part else (part, "") for part in case.split("|")
    )
    chaos, recovery = CHAOS[fields["chaos"]]
    if "pool" in fields:
        return serve_trace(
            ReplicaPool(FAST, replicas=3, max_batch=4),
            _trace(),
            policy=fields["policy"],
            batch_window_ms=2.0,
            chaos=chaos,
            recovery=recovery,
        )
    shape = fields["groups"]
    return serve_trace(
        _groups(fields["policy"], shape),
        _trace(),
        router=shape.partition(":")[2] or "round-robin",
        admission=ADMISSIONS[fields["admission"]],
        autoscale=AUTOSCALES[fields["autoscale"]],
        chaos=chaos,
        recovery=recovery,
    )


def digest(case: str) -> str:
    return hashlib.sha256(report_to_json(run_case(case)).encode()).hexdigest()


@lru_cache(maxsize=1)
def _golden() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert list(_golden()) == cases()


@pytest.mark.parametrize("case", cases())
def test_report_digest_is_frozen(case):
    report = run_case(case)
    assert report.completed + report.shed + report.failed == report.submitted
    got = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert got == _golden()[case], f"report bytes changed for {case}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FIXTURE.write_text(
        json.dumps({case: digest(case) for case in cases()}, indent=1) + "\n"
    )
    print(f"wrote {len(cases())} digests to {FIXTURE}")
