"""Golden ``SimStats`` digests for the cycle-accurate simulator.

Each case runs :class:`PipelineSimulator` on one plan, configuration,
DRAM bandwidth and frame count, and hashes every field of the returned
:class:`SimStats` (per-stage fields are hashed across all stages, in stage
order). The digests in ``tests/data/sim_golden.json`` pin the simulator's
output bit for bit — every float, every list, every order — so a change
to the event loop cannot move a single cycle without failing here.

The case matrix is setup x frames (2, 8, 12). The setups cover

- ``make_chain`` of depth 1-4 with the minimal configuration,
- an h-partitioned chain and a chain with varied cpf/kpf,
- the multi-branch ``make_tiny_decoder`` (uniform, and mixed factors with
  a two-replica branch),
- ``codec_avatar_decoder`` with a seeded DSE-found configuration on ZU9CG
  and Z7045 (the configurations are frozen in the fixture, so a DSE
  change does not move these cases),
- a low-bandwidth, DRAM-bound decoder (``dram_stall_cycles > 0``), and
- a chain whose large resident weights load for a different time per
  stage, so stages become ready at different cycles, and a low-bandwidth
  chain where a stage's weights finish loading only after its producer's
  first steps completed (it starts on a later, unrelated completion).

Regenerate the fixture only when a change is *meant* to alter the
simulator's output::

    PYTHONPATH=src python -m tests.test_sim_golden --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.arch.config import AcceleratorConfig, BranchConfig, StageConfig
from repro.arch.serialize import config_from_dict, config_to_dict
from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.fcad.flow import FCad
from repro.ir.builder import GraphBuilder
from repro.ir.layer import BiasMode, TensorShape
from repro.models.zoo import get_model
from repro.quant.schemes import INT8
from repro.sim.pipeline import PipelineSimulator
from repro.sim.stats import SimStats

from tests.conftest import make_chain, make_tiny_decoder

FIXTURE = Path(__file__).parent / "data" / "sim_golden.json"

FRAMES = (2, 8, 12)
DECODER_DEVICES = ("ZU9CG", "Z7045")
STAGE_FIELDS = (
    "steps_done",
    "frames_done",
    "busy_cycles",
    "input_stall_cycles",
    "credit_stall_cycles",
    "dram_stall_cycles",
    "frame_finish_times",
    "busy_intervals",
)


def _branch(batch: int, *factors: tuple[int, int, int]) -> BranchConfig:
    return BranchConfig(
        batch_size=batch,
        stages=tuple(StageConfig(cpf=c, kpf=k, h=h) for c, k, h in factors),
    )


def _chain(depth: int, channels: int = 8, size: int = 16, factors=None):
    plan = build_pipeline_plan(make_chain(depth=depth, channels=channels, size=size))
    if factors is None:
        return plan, AcceleratorConfig.uniform(plan)
    return plan, AcceleratorConfig(branches=(_branch(1, *factors),))


def _widening_chain(*channels: int, size: int = 8):
    b = GraphBuilder("widening_chain")
    x = b.input("x", TensorShape(3, size, size))
    for width in channels:
        x = b.conv(x, out_channels=width, kernel=3, bias=BiasMode.UNTIED)
    plan = build_pipeline_plan(b.graph)
    return plan, AcceleratorConfig.uniform(plan)


def _tiny_decoder(mixed: bool = False):
    plan = build_pipeline_plan(make_tiny_decoder())
    if not mixed:
        return plan, AcceleratorConfig.uniform(plan)
    factors = itertools.cycle([(2, 4, 1), (4, 2, 2), (1, 3, 4), (8, 1, 1)])
    branches = []
    for index, pipeline in enumerate(plan.branches):
        stages = []
        for planned, (cpf, kpf, h) in zip(pipeline.stages, factors):
            stage = planned.stage
            stages.append(
                (min(cpf, stage.cpf_max), min(kpf, stage.kpf_max), min(h, stage.h_max))
            )
        branches.append(_branch(1 + index, *stages))
    return plan, AcceleratorConfig(branches=tuple(branches))


def _decoder_flow(device: str) -> FCad:
    return FCad(network=get_model("codec_avatar_decoder"), device=get_device(device))


def _decoder(device: str):
    design = _decoder_flow(device)
    _, plan, _ = design.prepare()
    config = config_from_dict(_golden()["configs"][f"decoder@{device}"])
    return plan, config, design.budget.bandwidth_gbps, design.frequency_mhz


#: name -> () -> (plan, config, bandwidth GB/s, frequency MHz)
SETUPS = {
    **{
        f"chain{depth}": (lambda depth=depth: (*_chain(depth), 12.8, 200.0))
        for depth in (1, 2, 3, 4)
    },
    "chain3-h": lambda: (
        *_chain(3, size=32, factors=[(1, 1, 4), (1, 1, 2), (1, 1, 8)]),
        12.8,
        200.0,
    ),
    "chain3-pf": lambda: (
        *_chain(3, factors=[(3, 4, 1), (8, 2, 2), (2, 8, 1)]),
        12.8,
        200.0,
    ),
    "tiny-decoder": lambda: (*_tiny_decoder(), 12.8, 200.0),
    "tiny-decoder-mixed": lambda: (*_tiny_decoder(mixed=True), 12.8, 200.0),
    **{f"decoder@{device}": (lambda d=device: _decoder(d)) for device in DECODER_DEVICES},
    "dram-bound": lambda: (*_tiny_decoder(), 0.02, 200.0),
    "resident-weights": lambda: (*_chain(3, channels=64), 0.5, 200.0),
    "weights-outlast-fill": lambda: (*_widening_chain(8, 8, 96), 0.05, 200.0),
}


def cases() -> list[str]:
    """Every case id, in fixture order."""
    return [f"{setup}|frames={frames}" for setup in SETUPS for frames in FRAMES]


def _simulator(setup: str) -> PipelineSimulator:
    plan, config, bandwidth, frequency = SETUPS[setup]()
    return PipelineSimulator(plan, config, INT8, bandwidth, frequency)


def run_case(case: str) -> SimStats:
    setup, frames = case.split("|frames=")
    return _simulator(setup).run(frames=int(frames))


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def field_digests(stats: SimStats) -> dict[str, str]:
    """sha256 of every ``SimStats`` field; stage fields span all stages."""
    stages = list(stats.stages.values())
    digests = {
        "total_cycles": _sha(stats.total_cycles),
        "frames_requested": _sha(stats.frames_requested),
        "dram_busy_cycles": _sha(stats.dram_busy_cycles),
        "dram_bytes": _sha(stats.dram_bytes),
        "stage_names": _sha([name for name in stats.stages]),
    }
    for field in STAGE_FIELDS:
        digests[field] = _sha([getattr(st, field) for st in stages])
    return digests


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert list(_golden()["digests"]) == cases()


def test_matrix_exercises_dram_stalls_and_staggered_loads():
    stats = run_case("dram-bound|frames=2")
    assert any(st.dram_stall_cycles > 0 for st in stats.stages.values())
    weights = {
        sim.resident_weight_bytes
        for sim in _simulator("resident-weights").stages.values()
    }
    assert len(weights) > 1 and min(weights) > 0


@pytest.mark.parametrize("case", cases())
def test_sim_stats_digest_is_frozen(case):
    got = field_digests(run_case(case))
    want = _golden()["digests"][case]
    changed = [field for field in want if got.get(field) != want[field]]
    assert got.keys() == want.keys()
    assert not changed, f"SimStats fields changed for {case}: {changed}"


def _search_decoder_configs() -> dict[str, dict]:
    """Seeded DSE-found decoder configurations (frozen into the fixture)."""
    return {
        f"decoder@{device}": config_to_dict(
            _decoder_flow(device).run(iterations=2, population=12, seed=0).dse.best_config
        )
        for device in DECODER_DEVICES
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    if not FIXTURE.exists():
        FIXTURE.write_text(
            json.dumps({"configs": _search_decoder_configs(), "digests": {}}) + "\n"
        )
    configs = _golden()["configs"]
    digests = {case: field_digests(run_case(case)) for case in cases()}
    FIXTURE.write_text(
        json.dumps({"configs": configs, "digests": digests}, indent=1) + "\n"
    )
    print(f"wrote {len(digests)} cases to {FIXTURE}")
