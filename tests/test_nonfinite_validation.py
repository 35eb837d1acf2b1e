"""Non-finite policy numbers fail loudly at construction or parse time.

A NaN slips through every ``<=``/``<`` range check (all comparisons with
NaN are false), and an infinity passes a positivity check; either one
used to surface much later — mid-session, or as silently disabled
shedding. Each knob below now raises a typed error up front.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.serving import (
    AdmissionControl,
    AutoscalePolicy,
    ChaosPlan,
    GroupSpec,
    RecoveryPolicy,
)
from repro.sim.runner import FrameLatencyProfile

NON_FINITE = [math.nan, math.inf, -math.inf]

PROFILE = FrameLatencyProfile(
    finish_ms=(6.0, 8.0),
    first_frame_ms=6.0,
    steady_interval_ms=2.0,
    frequency_mhz=200.0,
)


@pytest.mark.parametrize("value", NON_FINITE)
def test_autoscale_check_interval_must_be_finite(value):
    with pytest.raises(ValueError, match="check interval"):
        AutoscalePolicy(check_interval_ms=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_autoscale_warmup_must_be_finite(value):
    with pytest.raises(ValueError, match="warm-up"):
        AutoscalePolicy(warmup_ms=value)


def test_autoscale_target_utilization_rejects_nan():
    with pytest.raises(ValueError, match="target utilization"):
        AutoscalePolicy(target_utilization=math.nan)


@pytest.mark.parametrize("value", NON_FINITE)
def test_admission_slack_must_be_finite(value):
    with pytest.raises(ValueError, match="slack"):
        AdmissionControl(slack=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_recovery_replace_delay_must_be_finite(value):
    with pytest.raises(ValueError, match="replace_after_ms"):
        RecoveryPolicy(replace_after_ms=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_group_batch_window_must_be_finite(value):
    with pytest.raises(ValueError, match="batch window"):
        GroupSpec("g", PROFILE, batch_window_ms=value)


@pytest.mark.parametrize(
    "spec", ["die-at:0:nan", "die-at:0:inf", "crash-at:0:inf", "stall:0:1:nan",
             "degrade:0:1:inf"]
)
def test_chaos_plan_rejects_non_finite_arguments(spec):
    with pytest.raises(ValueError, match="finite"):
        ChaosPlan.parse(spec)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "infinity"])
@pytest.mark.parametrize(
    "flag", ["--autoscale-warmup-ms", "--replace-after-ms", "--transport-timeout"]
)
def test_cli_positive_floats_reject_non_finite(capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", f"{flag}={value}"])
    assert excinfo.value.code == 2
    assert "finite positive number" in capsys.readouterr().err


def test_cli_alpha_rejects_nan(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "tiny_yolo", "--alpha", "nan"])
    assert excinfo.value.code == 2
    assert "finite positive number" in capsys.readouterr().err
