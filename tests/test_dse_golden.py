"""Golden result digests for the design-space exploration.

Each case runs one small seeded search of ``codec_avatar_decoder`` and
hashes its results' canonical JSON (the payload :func:`result_to_json`
writes). The digests in
``tests/data/dse_golden.json`` pin what Algorithms 1 and 2 decide — the
best configuration and its performance, the fitness history, the
convergence iteration, the solve and cache-hit counts, the objective and
oracle accounting — bit for bit, so a change to the swarm, the in-branch
kernel, the evaluation cache or the scorer cannot move a single float
without failing here.

Fields measured on the host clock (the seven ``*_seconds`` fields) are
*removed* from the payload before hashing, not zeroed, so adding a new
timing field does not move a digest. Pooled searches (``workers`` 2) also
drop ``stage_hits`` and ``stage_lookups``: those count the Algorithm-2
memo tables of whichever worker process solved a chunk, which depends on
scheduling (one process solving every chunk of ``paper|ZU9CG|int8|w2``
looks up 20,072 memo entries; two share them in 20,347).

Every case starts from :func:`clear_process_caches`. The matrix covers

- Z7045, ZU9CG and KU115 at int8 and int16 under the paper objective,
- the ``slo`` and ``composite`` objectives,
- ``workers`` 1 and 2,
- one staged search re-ranked by the cycle-accurate ``sim`` oracle,
- a ``run_sweep`` whose grid holds a duplicate case, and
- a second search on a warm, reopened :class:`FileEvalCache` (it must
  re-solve nothing).

Regenerate the fixture only when a change is *meant* to alter search
results::

    PYTHONPATH=src python -m tests.test_dse_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from repro.devices.fpga import get_device
from repro.dse.cache import FileEvalCache
from repro.dse.result import DseResult, result_to_dict
from repro.dse.worker import clear_process_caches
from repro.fcad.flow import FCad, run_sweep, sweep_grid
from repro.models.zoo import get_model

FIXTURE = Path(__file__).parent / "data" / "dse_golden.json"

MODEL = "codec_avatar_decoder"
ITERATIONS = 4
POPULATION = 24

HOST_TIME_FIELDS = (
    "runtime_seconds",
    "eval_seconds",
    "cache_seconds",
    "overhead_seconds",
    "ladder_seconds",
    "growth_seconds",
    "measure_seconds",
)
#: Worker-local memo counters: scheduling decides which process's tables
#: a chunk warms, so they vary between pooled runs.
POOLED_FIELDS = ("stage_hits", "stage_lookups")


def _flow(device: str, quant: str = "int8") -> FCad:
    return FCad(network=get_model(MODEL), device=get_device(device), quant=quant)


def _run(device: str, quant: str = "int8", **kwargs) -> tuple[DseResult, ...]:
    kwargs.setdefault("iterations", ITERATIONS)
    kwargs.setdefault("population", POPULATION)
    return (_flow(device, quant).run(seed=0, **kwargs).dse,)


def _sweep() -> tuple[DseResult, ...]:
    flows = sweep_grid(
        networks=[get_model(MODEL)], devices=["Z7045", "ZU9CG", "Z7045"]
    )
    results = tuple(
        r.dse for r in run_sweep(flows, iterations=ITERATIONS, population=POPULATION)
    )
    assert results[0] is results[2], "the duplicate case was searched twice"
    return results


def _warm_file_cache() -> tuple[DseResult, ...]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.sqlite"
        flow = _flow("ZU9CG")
        with FileEvalCache(str(path)) as cache:
            cold = flow.run(
                iterations=ITERATIONS, population=POPULATION, seed=0, cache=cache
            )
        clear_process_caches()
        with FileEvalCache(str(path)) as cache:
            warm = flow.run(
                iterations=ITERATIONS, population=POPULATION, seed=0, cache=cache
            )
    assert warm.dse.evaluations == 0, "the warm search re-solved a bucket"
    return cold.dse, warm.dse


#: case id -> () -> the results whose payloads the digest covers
CASES = {
    **{
        f"paper|{device}|{quant}|w1": (
            lambda device=device, quant=quant: _run(device, quant)
        )
        for device in ("Z7045", "ZU9CG", "KU115")
        for quant in ("int8", "int16")
    },
    "slo|ZU9CG|int8|w1": lambda: _run("ZU9CG", objective="slo"),
    "composite|KU115|int16|w1": lambda: _run("KU115", "int16", objective="composite"),
    "paper|ZU9CG|int8|w2": lambda: _run("ZU9CG", workers=2),
    "slo|Z7045|int16|w2": lambda: _run("Z7045", "int16", objective="slo", workers=2),
    "slo+sim|ZU9CG|int8|w1": lambda: _run(
        "ZU9CG",
        iterations=2,
        population=8,
        objective="slo",
        rerank_oracle="sim",
        rerank_top_k=2,
    ),
    "sweep-duplicate|int8|w1": _sweep,
    "file-cache-warm|ZU9CG|int8|w1": _warm_file_cache,
}


def canonical_payload(result: DseResult) -> dict:
    """``result_to_dict`` without the host-clock (and pooled memo) fields."""
    payload = result_to_dict(result)
    for field in HOST_TIME_FIELDS:
        del payload[field]
    if result.workers > 1:
        for field in POOLED_FIELDS:
            del payload[field]
    return payload


def case_digest(case: str) -> str:
    clear_process_caches()
    payloads = [canonical_payload(r) for r in CASES[case]()]
    return hashlib.sha256(json.dumps(payloads, indent=2).encode()).hexdigest()


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert list(_golden()) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_dse_result_digest_is_frozen(case):
    assert case_digest(case) == _golden()[case], f"search result changed for {case}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    digests = {case: case_digest(case) for case in CASES}
    FIXTURE.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} cases to {FIXTURE}")
