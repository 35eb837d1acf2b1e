"""Hypothesis properties of the event-heap engine and its admission test.

For generated traces (shape, deadline tiers, churn), cluster shapes,
admission settings, autoscaling on/off and optional chaos plans, every
session must account for every request, reproduce itself byte for byte,
and fail nothing when no fault is injected. The admission test must give
the same verdict whether it is asked through a live group
(:meth:`AdmissionControl.admit`) or on plain numbers
(:meth:`AdmissionControl.admit_backlog`), for both engines' groups.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    AdmissionControl,
    AutoscalePolicy,
    ChaosPlan,
    GroupSpec,
    RecoveryPolicy,
    make_trace,
    report_to_json,
    serve_trace,
)
from repro.serving.cluster import ReplicaGroup
from repro.serving.engine import _EngineGroup
from repro.serving.traffic import RequestTrace
from repro.sim.runner import FrameLatencyProfile

PROFILES = (
    FrameLatencyProfile(
        finish_ms=(6.0, 8.0), first_frame_ms=6.0,
        steady_interval_ms=2.0, frequency_mhz=200.0,
    ),
    FrameLatencyProfile(
        finish_ms=(8.0, 12.0, 16.0), first_frame_ms=8.0,
        steady_interval_ms=4.0, frequency_mhz=200.0,
    ),
    FrameLatencyProfile(
        finish_ms=(3.3, 4.4), first_frame_ms=3.3,
        steady_interval_ms=1.1, frequency_mhz=150.0,
    ),
)

TIERS = st.lists(
    st.sampled_from([10.0, 20.0, 33.3, 60.0, 150.0]), min_size=0, max_size=3
).map(tuple)


@st.composite
def traces(draw):
    shape = draw(st.sampled_from(["steady", "diurnal", "flash"]))
    fps = draw(st.sampled_from([10.0, 30.0]))
    params = {}
    if shape == "steady":
        params["churn"] = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return make_trace(
        draw(st.integers(1, 60)),
        draw(st.sampled_from([0.5, 1.0, 2.0])),
        shape=shape,
        avatar_fps=fps,
        deadline_ms=draw(st.sampled_from([15.0, 50.0, 200.0])),
        deadline_tiers=draw(TIERS),
        jitter_ms=draw(st.sampled_from([0.0, 0.4])) * 1000.0 / fps,
        seed=draw(st.integers(0, 2**16)),
        **params,
    )


@st.composite
def group_specs(draw):
    count = draw(st.integers(1, 2))
    return [
        GroupSpec(
            f"g{k}",
            draw(st.sampled_from(PROFILES)),
            replicas=draw(st.integers(1, 2)),
            policy=draw(st.sampled_from(["fifo", "edf", "fair"])),
            batch_window_ms=draw(st.sampled_from([0.0, 1.0, 4.0])),
            max_batch=draw(st.integers(1, 8)),
        )
        for k in range(count)
    ]


admissions = st.one_of(
    st.none(),
    st.builds(
        AdmissionControl,
        max_queue_per_replica=st.one_of(st.none(), st.integers(1, 16)),
        predict_miss=st.booleans(),
        slack=st.sampled_from([0.5, 1.0, 1.5]),
    ),
)

autoscales = st.one_of(
    st.none(),
    st.builds(
        AutoscalePolicy,
        check_interval_ms=st.sampled_from([100.0, 250.0]),
        warmup_ms=st.sampled_from([0.0, 200.0]),
        min_replicas=st.just(1),
        max_replicas=st.integers(1, 5),
    ),
)


@st.composite
def chaos_plans(draw):
    clauses = []
    for replica in range(3):
        kind = draw(st.sampled_from(["", "crash-at", "die-at", "stall", "degrade"]))
        if kind == "crash-at":
            clauses.append(f"crash-at:{replica}:{draw(st.integers(1, 6))}")
        elif kind == "die-at":
            clauses.append(f"die-at:{replica}:{draw(st.integers(0, 1500))}")
        elif kind == "stall":
            clauses.append(f"stall:{replica}:{draw(st.integers(1, 6))}:25")
        elif kind == "degrade":
            clauses.append(f"degrade:{replica}:{draw(st.integers(1, 6))}:1.5")
    recovery = RecoveryPolicy(
        max_retries=draw(st.integers(0, 2)),
        hedge=draw(st.booleans()),
        breaker_threshold=draw(st.integers(0, 3)),
        replace_after_ms=draw(st.sampled_from([None, 100.0])),
    )
    return ChaosPlan.parse(",".join(clauses)), recovery


@settings(max_examples=60, deadline=None)
@given(
    trace=traces(),
    specs=group_specs(),
    router=st.sampled_from(["round-robin", "least-loaded", "deadline"]),
    admission=admissions,
    autoscale=autoscales,
    faults=st.one_of(st.none(), chaos_plans()),
)
def test_sessions_are_lossless_and_reproducible(
    trace, specs, router, admission, autoscale, faults
):
    chaos, recovery = faults if faults is not None else (None, None)

    def run():
        return serve_trace(
            specs,
            trace,
            router=router,
            admission=admission,
            autoscale=autoscale,
            chaos=chaos,
            recovery=recovery,
        )

    first, second = run(), run()
    assert first.submitted == len(trace)
    assert first.completed + first.shed + first.failed == first.submitted
    assert report_to_json(first) == report_to_json(second)
    if not chaos:
        assert first.failed == 0
    if admission is None:
        assert first.shed == 0


def test_autoscaled_replica_on_exhausted_group_stays_idle():
    # The only replica crashes with frame 0 aboard while frame 1 waits
    # for it; no retries and no replacement exhaust the group, failing
    # frame 1. The autoscaler's later replica must find a retired
    # dispatcher, not dispatch the emptied queue.
    trace = RequestTrace(
        arrival_ms=np.array([0.0, 1.0, 150.0]),
        avatar_id=np.array([0, 1, 0]),
        deadline_rel_ms=np.full(3, 50.0),
        avatars=2,
        deadline_ms=50.0,
    )
    report = serve_trace(
        GroupSpec("g", PROFILES[0], replicas=1, max_batch=1),
        trace,
        autoscale=AutoscalePolicy(check_interval_ms=100.0, warmup_ms=0.0),
        chaos=ChaosPlan.parse("crash-at:0:1"),
        recovery=RecoveryPolicy(max_retries=0),
    )
    assert report.scale_ups == 1
    assert (report.submitted, report.completed, report.failed) == (3, 0, 3)


def _reference_admit(control, backlog, replicas, profile, window_ms, rel):
    """The admission test as first written: bounded queue, then
    backlog drain + window + service against ``slack x`` budget."""
    if (
        control.max_queue_per_replica is not None
        and backlog >= control.max_queue_per_replica * replicas
    ):
        return False
    if control.predict_miss:
        service = (
            profile.first_frame_ms if backlog == 0 else profile.steady_interval_ms
        )
        drain = backlog * profile.steady_interval_ms / replicas
        if drain + window_ms + service > control.slack * rel:
            return False
    return True


group_states = st.fixed_dictionaries(
    {
        "profile": st.sampled_from(PROFILES),
        "window_ms": st.sampled_from([0.0, 1.0, 2.5, 8.0]),
        "queued": st.integers(0, 200),
        "inflight": st.integers(0, 64),
        "live": st.integers(0, 8),
        "draining": st.integers(0, 4),
        "rel": st.floats(1.0, 500.0, allow_nan=False),
    }
)


@settings(max_examples=200, deadline=None)
@given(control=admissions.filter(lambda c: c is not None), state=group_states)
def test_admit_matches_admit_backlog_on_engine_groups(control, state):
    spec = GroupSpec(
        "g", state["profile"], batch_window_ms=state["window_ms"], max_batch=8
    )
    group = _EngineGroup(spec, 0, batch_limit=8)
    group.queue_len = state["queued"]
    group.inflight = state["inflight"]
    group.live = state["live"]
    group.pending_drain = min(state["draining"], state["live"])
    replicas = max(1, group.live - group.pending_drain)
    backlog = state["queued"] + state["inflight"]
    verdict = control.admit(group, state["rel"])
    assert verdict == control.admit_backlog(
        backlog,
        replicas,
        group.interval_ms,
        group.window_ms,
        group.first_frame_ms,
        state["rel"],
    )
    assert verdict == _reference_admit(
        control, backlog, replicas, state["profile"], state["window_ms"], state["rel"]
    )


@settings(max_examples=200, deadline=None)
@given(control=admissions.filter(lambda c: c is not None), state=group_states)
def test_admit_matches_admit_backlog_on_coroutine_groups(control, state):
    deployed = max(1, state["live"])
    spec = GroupSpec(
        "g",
        state["profile"],
        replicas=deployed,
        batch_window_ms=state["window_ms"],
        max_batch=8,
    )
    group = ReplicaGroup(spec)
    for replica in group.pool.replicas[: state["draining"]]:
        replica.health = "dead"
    group.scheduler = SimpleNamespace(
        queue_depth=state["queued"], inflight_frames=state["inflight"]
    )
    replicas = max(1, group.pool.alive)
    backlog = state["queued"] + state["inflight"]
    verdict = control.admit(group, state["rel"])
    assert verdict == control.admit_backlog(
        backlog,
        replicas,
        state["profile"].steady_interval_ms,
        state["window_ms"],
        state["profile"].first_frame_ms,
        state["rel"],
    )
    assert verdict == _reference_admit(
        control, backlog, replicas, state["profile"], state["window_ms"], state["rel"]
    )
