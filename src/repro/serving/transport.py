"""Replica dispatch behind a protocol: in-process, local host, or remote.

The scheduler never computes service times itself — it hands a batch to a
:class:`ReplicaTransport` and gets back per-frame completion times. That
seam is what makes *remote* replicas a deployment choice instead of a
rewrite of the serving layer:

- :class:`InProcessTransport` (the default) calls
  :meth:`~repro.serving.replica.Replica.service_times` directly — zero
  overhead, bit-identical to the pre-transport scheduler on the virtual
  clock;
- :class:`~repro.dist.remote_transport.RemoteTransport` (name
  ``remote:HOST:PORT``) talks to a persistent, authenticated replica host
  (:func:`~repro.dist.remote_transport.serve_replicas`) with
  reconnection and request resubmission;
- :class:`SocketTransport` (name ``socket``) spawns that same replica
  host as a local child process with a fresh per-spawn token and drives
  it through a :class:`~repro.dist.remote_transport.RemoteTransport`.

So there is one replica server and one wire format
(:mod:`repro.dist.wire`), which round-trips floats exactly (``json``
uses shortest-repr floats): a socket- or remote-served session computes
the same finish times the in-process path would. Every ``decode`` is a
plain call that finishes its round trip without suspending, so no
virtual-clock timer can fire while a request is on the wire.
"""

from __future__ import annotations

import os
import secrets
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.serving.replica import Replica, ReplicaPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.remote_transport import RemoteTransport

#: Environment variable ``remote:`` transports read their auth token from
#: (and the variable a spawned ``socket`` replica host reads its own from).
REMOTE_TOKEN_ENV = "REPRO_FLEET_TOKEN"

# The spawned replica host: an explicit empty fault plan (a
# REPRO_FLEET_FAULT inherited from the parent must not arm it), and a
# stop on stdin EOF, so the host never outlives the process that spawned
# it even when that process dies without closing the transport.
_SOCKET_CHILD = f"""\
import os, sys, threading
from repro.dist.remote_transport import serve_replicas
from repro.faults import FaultInjector, FaultPlan
stop = threading.Event()
threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
raise SystemExit(serve_replicas(
    token=os.environ[{REMOTE_TOKEN_ENV!r}],
    fault=FaultInjector(FaultPlan()),
    stop=stop,
))
"""


@runtime_checkable
class ReplicaTransport(Protocol):
    """How a dispatched batch reaches a replica and comes back timed."""

    name: str

    def open(self, pool: ReplicaPool) -> None:
        """Start a serving session against ``pool`` (spawn servers etc.)."""
        ...

    def close(self) -> None:
        """Tear the session down (kill servers, close sockets)."""
        ...

    def decode(
        self, replica: Replica, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        """Serve ``batch`` frames on ``replica`` from ``start_ms``."""
        ...


class InProcessTransport:
    """Today's behavior: the replica object itself computes service times."""

    name = "inprocess"

    def open(self, pool: ReplicaPool) -> None:  # noqa: ARG002 - protocol
        return None

    def close(self) -> None:
        return None

    def decode(
        self, replica: Replica, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        return replica.service_times(start_ms, batch)


class SocketTransport:
    """Replicas served by a locally spawned replica host.

    ``open`` spawns a child running
    :func:`~repro.dist.remote_transport.serve_replicas` on an ephemeral
    localhost port, reads the port line the child prints, and opens a
    :class:`~repro.dist.remote_transport.RemoteTransport` session on it.
    The child's token is fresh per spawn and reaches it through its
    environment, never argv, so no other local process can use the host.
    ``close`` ends the session, then terminates the child (the host
    serves until it is stopped). A child that dies mid-session surfaces
    as :class:`~repro.dist.remote_transport.RemoteReplicaError` once the
    remote retry budget is spent.
    """

    name = "socket"

    def __init__(self, timeout_s: float = 30.0) -> None:
        self.timeout_s = timeout_s
        self._proc: subprocess.Popen | None = None
        self._remote: RemoteTransport | None = None

    def open(self, pool: ReplicaPool) -> None:
        import repro
        from repro.dist.remote_transport import RemoteTransport

        token = secrets.token_hex(16)
        env = dict(os.environ)
        env[REMOTE_TOKEN_ENV] = token
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SOCKET_CHILD],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            port_line = self._proc.stdout.readline().strip()
            if not port_line.isdigit():
                raise RuntimeError(
                    f"replica server failed to start (got {port_line!r})"
                )
            self._remote = RemoteTransport(
                "127.0.0.1", int(port_line), token=token,
                timeout_s=self.timeout_s,
            )
            self._remote.open(pool)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._remote is not None:
            self._remote.close()
            self._remote = None
        if self._proc is not None:
            self._proc.terminate()
            self._proc.wait()
            self._proc.stdin.close()
            self._proc.stdout.close()
            self._proc = None

    def decode(
        self, replica: Replica, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        assert self._remote is not None, "transport not opened"
        return self._remote.decode(replica, start_ms, batch)


#: Transport names accepted by :func:`get_transport` (and ``--transport``).
#: ``remote:HOST:PORT`` — not listed because it carries an address — is
#: also accepted and builds a :class:`~repro.dist.remote_transport.RemoteTransport`.
TRANSPORTS = ("inprocess", "socket")


def parse_remote_spec(name: str) -> tuple[str, int]:
    """Split ``remote:HOST:PORT`` into a validated ``(host, port)``."""
    _, _, address = name.partition(":")
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit() or not 0 < int(port_text) < 65536:
        raise ValueError(
            f"bad remote transport {name!r}: expected remote:HOST:PORT "
            f"with a port in 1..65535"
        )
    return host, int(port_text)


def require_fleet_token(context: str) -> str:
    """The fleet auth token from the environment, or a friendly error.

    Everything that talks to a remote replica or fleet endpoint
    (``remote:HOST:PORT`` transports, ``repro fleet worker|replicas``)
    authenticates with the shared secret in :data:`REMOTE_TOKEN_ENV`.
    Checking it up front turns a confusing mid-session auth failure into
    an immediate, actionable message.
    """
    token = os.environ.get(REMOTE_TOKEN_ENV, "")
    if not token:
        raise RuntimeError(
            f"{context} needs the fleet auth token: set {REMOTE_TOKEN_ENV} "
            f"to the shared secret the replica server was started with "
            f"(e.g. export {REMOTE_TOKEN_ENV}=...)"
        )
    return token


def get_transport(
    name: str | ReplicaTransport, timeout_s: float | None = None
) -> ReplicaTransport:
    """Look a transport up by name (or pass an instance through).

    ``timeout_s`` bounds how long the socket/remote transports wait on
    the wire (connection setup and each decode round-trip); ``None``
    keeps each transport's default. In-process serving has no wire and
    ignores it.
    """
    if not isinstance(name, str):
        return name
    wire = {} if timeout_s is None else {"timeout_s": timeout_s}
    if name == "inprocess":
        return InProcessTransport()
    if name == "socket":
        return SocketTransport(**wire)
    if name.startswith("remote:"):
        from repro.dist.remote_transport import RemoteTransport

        host, port = parse_remote_spec(name)
        token = require_fleet_token(f"transport {name!r}")
        return RemoteTransport(host, port, token=token, **wire)
    known = ", ".join(TRANSPORTS + ("remote:HOST:PORT",))
    raise KeyError(
        f"unknown replica transport {name!r}; known transports: {known}"
    )


def list_transports() -> list[str]:
    return list(TRANSPORTS)


__all__ = [
    "InProcessTransport",
    "REMOTE_TOKEN_ENV",
    "ReplicaTransport",
    "SocketTransport",
    "TRANSPORTS",
    "get_transport",
    "list_transports",
    "parse_remote_spec",
    "require_fleet_token",
]

