"""RemoteTransport: persistent replica server, reconnection, loud failure.

The contract under test: serving through ``remote:HOST:PORT`` is
bit-identical to in-process serving — including across a forced
disconnect/reconnect, because the server's per-session reply cache makes
resubmission idempotent — and an unrecoverably dead server surfaces as
*replica-level* faults: the session completes with the unserved frames
counted ``failed`` and the replicas marked lost, never a hang and never
a silently dropped frame.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager

import pytest

from repro.dist.protocol import AuthError, ProtocolError, client_handshake
from repro.dist.remote_transport import (
    RemoteReplicaError,
    RemoteTransport,
    profile_from_wire,
    profile_to_wire,
    serve_replicas,
)
from repro.dist.wire import LineSocket
from repro.faults import FaultInjector, FaultPlan
from repro.serving import (
    ReplicaPool,
    canned_workload,
    get_transport,
    serve_workload,
)
from repro.serving.replica import Replica
from repro.serving.transport import REMOTE_TOKEN_ENV, parse_remote_spec
from repro.sim.runner import FrameLatencyProfile

PROFILE = FrameLatencyProfile(
    finish_ms=(8.0, 12.0, 16.0),
    first_frame_ms=8.0,
    steady_interval_ms=4.0,
    frequency_mhz=200.0,
)


@contextmanager
def replica_server(token: str = "t", fault: FaultInjector | None = None):
    stop = threading.Event()
    ready = threading.Event()
    box: dict[str, int] = {}

    def on_ready(port: int) -> None:
        box["port"] = port
        ready.set()

    thread = threading.Thread(
        target=serve_replicas,
        kwargs=dict(
            port=0,
            token=token,
            fault=fault,
            ready=on_ready,
            stop=stop,
            announce=False,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(5), "replica server never bound its port"
    try:
        yield box["port"]
    finally:
        stop.set()
        thread.join(timeout=5)


def remote_report(port: int, token: str = "t", **transport_kwargs):
    transport = RemoteTransport(
        "127.0.0.1",
        port,
        token=token,
        backoff_s=0.01,
        backoff_max_s=0.05,
        **transport_kwargs,
    )
    report = serve_workload(
        ReplicaPool(PROFILE, replicas=2, max_batch=8),
        canned_workload(avatars=4, frames_per_avatar=6),
        policy="edf",
        transport=transport,
    )
    return report, transport


@pytest.fixture(scope="module")
def inprocess_report():
    return serve_workload(
        ReplicaPool(PROFILE, replicas=2, max_batch=8),
        canned_workload(avatars=4, frames_per_avatar=6),
        policy="edf",
    )


class TestRemoteServing:
    def test_remote_matches_inprocess_bit_for_bit(self, inprocess_report):
        with replica_server() as port:
            report, transport = remote_report(port)
        assert report == inprocess_report
        assert transport.reconnects == 0
        assert transport.health == "closed"

    def test_forced_disconnect_reconnects_and_stays_identical(
        self, inprocess_report
    ):
        """The server drops the connection mid-session; the report doesn't
        change — resubmission hits the server's reply cache."""
        fault = FaultInjector(FaultPlan(drop_conn_after_decodes=3))
        with replica_server(fault=fault) as port:
            report, transport = remote_report(port)
        assert transport.reconnects == 1
        assert report.reconnects == 1  # surfaced into the report
        assert dataclasses.replace(report, reconnects=0) == inprocess_report

    def test_dead_server_fails_frames_not_session(self):
        """A server gone past its reconnect budget is a replica fault:
        the session still completes, every unserved frame resolves as
        ``failed``, and the lost replicas land in the report."""
        fault = FaultInjector(FaultPlan(kill_server_after_decodes=2))
        with replica_server(fault=fault) as port:
            report, _ = remote_report(port, max_retries=2)
        assert report.failed > 0
        assert report.replicas_lost == 2  # both proxies hit the dead server
        assert report.completed + report.failed == report.submitted
        assert any("dead" in g.health for g in report.groups) or not report.groups

    def test_wrong_token_is_an_auth_error(self):
        with replica_server(token="right") as port:
            with pytest.raises(AuthError):
                remote_report(port, token="wrong")


class TestMalformedDecode:
    @pytest.mark.parametrize(
        "replica_id, start_ms, batch",
        [
            ([1], 0.0, 1),
            (True, 0.0, 1),
            (0, "x", 1),
            (0, None, 1),
            (0, float("nan"), 1),
            (0, 0.0, "abc"),
            (0, 0.0, 2.5),
            (0, 0.0, 0),
            (0, 0.0, 99),
        ],
    )
    def test_typed_error_and_the_server_keeps_serving(
        self, replica_id, start_ms, batch, inprocess_report
    ):
        """A malformed decode gets an ``error`` reply: the client raises
        at once (no re-dial), and the connection and the server both
        keep serving."""
        with replica_server() as port:
            transport = RemoteTransport("127.0.0.1", port, token="t")
            transport.open(ReplicaPool(PROFILE, replicas=1, max_batch=8))
            try:
                bad = Replica(replica_id, PROFILE, max_batch=8)
                with pytest.raises(RemoteReplicaError, match="replica server"):
                    transport.decode(bad, start_ms, batch)
                assert transport.reconnects == 0
                expected = Replica(0, PROFILE).service_times(0.0, 2)
                good = Replica(0, PROFILE, max_batch=8)
                assert transport.decode(good, 0.0, 2) == expected
            finally:
                transport.close()
            report, _ = remote_report(port)
        assert report == inprocess_report


WIRE_PROFILE = profile_to_wire(PROFILE)


def profile_with(**fields) -> dict:
    return {"profile": {**WIRE_PROFILE, **fields}}


def replica_hello(port: int, extra: dict) -> LineSocket:
    """Open a raw replica-client connection with the given hello fields."""
    conn = LineSocket.connect("127.0.0.1", port, timeout_s=5)
    hello = {"session": "shared", "profile": WIRE_PROFILE, "max_batch": 8}
    try:
        client_handshake(
            conn, "t", role="replica-client", extra={**hello, **extra}
        )
    except BaseException:
        conn.close()
        raise
    return conn


class TestMalformedHello:
    @pytest.mark.parametrize(
        "extra",
        [
            {"profile": [8.0, 12.0]},
            {"profile": None},
            profile_with(finish_ms=[]),
            profile_with(finish_ms="8.0"),
            profile_with(finish_ms=[8.0, "x"]),
            profile_with(finish_ms=[-1.0]),
            profile_with(finish_ms=[float("inf")]),
            profile_with(first_frame_ms="x"),
            profile_with(first_frame_ms=float("nan")),
            profile_with(steady_interval_ms=-4.0),
            profile_with(frequency_mhz=0.0),
            profile_with(frequency_mhz=True),
            {"max_batch": 0},
            {"max_batch": True},
            {"max_batch": 2.7},
            {"max_batch": "8"},
        ],
    )
    def test_refused_before_a_session_is_cached(
        self, extra, inprocess_report
    ):
        """A hello the host cannot serve is refused during the handshake
        with a typed client error, caches nothing under its session id,
        and leaves the host serving good clients."""
        with replica_server() as port:
            with pytest.raises(ProtocolError, match="server refused"):
                replica_hello(port, extra)
            conn = replica_hello(port, {})
            try:
                reply = conn.request(
                    {
                        "type": "decode",
                        "id": 1,
                        "replica": 0,
                        "start_ms": 0.0,
                        "batch": 2,
                    }
                )
            finally:
                conn.close()
            assert reply["finish_ms"] == list(
                Replica(0, PROFILE).service_times(0.0, 2)
            )
            report, _ = remote_report(port)
        assert report == inprocess_report


class TestRemoteTransportLookup:
    def test_get_transport_builds_remote_from_spec(self, monkeypatch):
        monkeypatch.setenv(REMOTE_TOKEN_ENV, "sekrit")
        transport = get_transport("remote:replicahost:7100")
        assert isinstance(transport, RemoteTransport)
        assert (transport.host, transport.port) == ("replicahost", 7100)
        assert transport.token == "sekrit"

    def test_instances_pass_through(self):
        transport = RemoteTransport("h", 1)
        assert get_transport(transport) is transport

    @pytest.mark.parametrize(
        "spec", ["remote:", "remote:nohost", "remote:h:0", "remote:h:99999"]
    )
    def test_malformed_remote_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="remote:HOST:PORT"):
            parse_remote_spec(spec)

    def test_unknown_transport_mentions_remote(self):
        with pytest.raises(KeyError, match="remote:HOST:PORT"):
            get_transport("carrier-pigeon")

    def test_profile_wire_round_trip(self):
        assert profile_from_wire(profile_to_wire(PROFILE)) == PROFILE
