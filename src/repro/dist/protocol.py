"""Versioned handshake + auth for every fleet connection.

Connections open with a three-step exchange over the line-JSON wire
(:mod:`repro.dist.wire`):

1. client -> ``{"type": "hello", "version": V, "role": R, ...}``
2. server -> ``{"type": "challenge", "nonce": N}``
3. client -> ``{"type": "auth", "mac": HMAC_SHA256(token, N || V)}``
4. server -> ``{"type": "welcome", ...}`` or ``{"type": "error", ...}``

The shared secret never crosses the wire — only an HMAC over the
server's fresh nonce, so a captured handshake cannot be replayed against
a new connection. Version mismatches and bad MACs are rejected *before*
any payload is exchanged (payloads contain pickles, which must never be
unpickled from an unauthenticated peer).

Requests carry a client-assigned ``id`` (monotonic per connection,
:class:`MessageIds`); servers that support resumption cache replies by id
so a resubmitted request after a reconnect is idempotent. Liveness uses
``{"type": "ping"}`` / ``{"type": "pong"}`` heartbeats.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import secrets
from typing import Callable

from repro.dist.wire import LineSocket

#: Bumped whenever a message shape changes incompatibly. Both ends must
#: match; the server refuses mismatched clients during the handshake.
PROTOCOL_VERSION = 1


class ProtocolError(RuntimeError):
    """The peer spoke the protocol wrong (or refused us)."""


class AuthError(ProtocolError):
    """The shared-secret handshake failed."""


class MessageIds:
    """Monotonic message-id source, one per connection."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next(self) -> int:
        return next(self._counter)


def auth_mac(token: str, nonce: str) -> str:
    material = f"{nonce}|{PROTOCOL_VERSION}".encode()
    return hmac.new(token.encode(), material, hashlib.sha256).hexdigest()


def client_handshake(
    conn: LineSocket,
    token: str,
    role: str,
    extra: dict | None = None,
) -> dict:
    """Run the client side of the handshake; returns the welcome message."""
    hello = {"type": "hello", "version": PROTOCOL_VERSION, "role": role}
    if extra:
        hello.update(extra)
    conn.send(hello)
    challenge = conn.recv()
    if challenge is None:
        raise ProtocolError("server closed the connection during handshake")
    if challenge.get("type") == "error":
        raise ProtocolError(f"server refused: {challenge.get('error')}")
    if challenge.get("type") != "challenge":
        raise ProtocolError(f"expected challenge, got {challenge!r}")
    conn.send({"type": "auth", "mac": auth_mac(token, challenge["nonce"])})
    welcome = conn.recv()
    if welcome is None:
        raise AuthError("server closed the connection after auth (bad token?)")
    if welcome.get("type") == "error":
        raise AuthError(f"auth rejected: {welcome.get('error')}")
    if welcome.get("type") != "welcome":
        raise ProtocolError(f"expected welcome, got {welcome!r}")
    return welcome


def server_handshake(
    conn: LineSocket,
    token: str,
    welcome_extra: dict | None = None,
    check: Callable[[dict], str | None] | None = None,
) -> dict:
    """Run the server side; returns the client's hello (with its role).

    ``check`` names why a hello cannot be served (``None`` if it can);
    such a hello is refused like a version mismatch. Raises
    :class:`AuthError` / :class:`ProtocolError` after sending the peer a
    ``{"type": "error"}`` explanation — callers just close.
    """
    hello = conn.recv()
    if hello is None:
        raise ProtocolError("client vanished before hello")
    if hello.get("type") != "hello":
        conn.send({"type": "error", "error": "expected hello"})
        raise ProtocolError(f"expected hello, got {hello!r}")
    if hello.get("version") != PROTOCOL_VERSION:
        conn.send(
            {
                "type": "error",
                "error": (
                    f"protocol version mismatch: server speaks "
                    f"{PROTOCOL_VERSION}, client spoke {hello.get('version')}"
                ),
            }
        )
        raise ProtocolError("protocol version mismatch")
    problem = check(hello) if check is not None else None
    if problem is not None:
        conn.send({"type": "error", "error": problem})
        raise ProtocolError(problem)
    nonce = secrets.token_hex(16)
    conn.send({"type": "challenge", "nonce": nonce})
    auth = conn.recv()
    if auth is None or auth.get("type") != "auth":
        conn.send({"type": "error", "error": "expected auth"})
        raise AuthError("client did not answer the challenge")
    if not hmac.compare_digest(auth.get("mac", ""), auth_mac(token, nonce)):
        conn.send({"type": "error", "error": "bad auth token"})
        raise AuthError("bad auth token")
    welcome = {"type": "welcome", "version": PROTOCOL_VERSION}
    if welcome_extra:
        welcome.update(welcome_extra)
    conn.send(welcome)
    return hello


__all__ = [
    "PROTOCOL_VERSION",
    "AuthError",
    "MessageIds",
    "ProtocolError",
    "auth_mac",
    "client_handshake",
    "server_handshake",
]
