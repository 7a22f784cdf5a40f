"""The cluster wire protocol: framed messages and the registration handshake.

Every cluster message is one length-prefixed frame
(:func:`repro.fabric.wirecodec.frame`: 4-byte big-endian length + a
``wirecodec`` payload), so the codec vocabulary — and its bit-exact array
transcription — is shared verbatim with the process transports' pipe wire.
Messages are tuples whose first element is the verb:

==================  =============================================  =========
direction           message                                        reply
==================  =============================================  =========
agent -> registry   ``("hello", {protocol, versions, name, pid})``  ``welcome`` / ``reject``
registry -> agent   ``("welcome", {version, agent_id,
                    heartbeat_interval_s})``                        —
registry -> agent   ``("reject", reason)``                          —
agent -> registry   ``("hb", seq)`` (async, every interval)         —
registry -> agent   ``("share", session, key, value_bytes)``        ``("ok", None)``
registry -> agent   ``("init", session, node_id, state_bytes)``     ``("ok", None)``
registry -> agent   ``("run", session, [(node_id, fn_bytes,
                    args_bytes), ...])``                            ``("ok", [result_bytes, ...])``
registry -> agent   ``("release", session)``                        ``("ok", None)``
registry -> agent   ``("ping",)``                                   ``("ok", "pong")``
registry -> agent   ``("stop",)``                                   ``("ok", None)``, then the agent exits
==================  =============================================  =========

The ``share`` … ``stop`` rows are the :class:`~repro.fabric.runtime.NodeRuntime`
command set, which process-pool workers also answer over their pipes.
A task error inside the agent answers ``("error", traceback)`` instead of
``("ok", ...)`` — user code raising is *not* an infrastructure fault, exactly
as on the process pool.  Heartbeats are pushed by the agent on the same
socket and demultiplexed by the registry's per-member reader thread, so a
long-running task never starves liveness.

Handshake and version negotiation: the agent always speaks first, sending
``hello`` with the protocol name and every version it implements; the
registry picks the highest common version and answers ``welcome`` (carrying
the negotiated version, the assigned agent id, and the heartbeat interval)
or ``reject`` with a reason, then closes.  Either side treats an unknown
protocol name, an empty version intersection, or a non-``hello`` first frame
as a :class:`HandshakeError`.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Optional

from ..fabric import wirecodec

__all__ = [
    "PROTOCOL_NAME",
    "SUPPORTED_VERSIONS",
    "HandshakeError",
    "FrameConnection",
    "parse_address",
    "hello_message",
    "negotiate_version",
]

#: Protocol identity sent in every ``hello``.
PROTOCOL_NAME = "repro-cluster"

#: Protocol versions this build implements (descending preference).
SUPPORTED_VERSIONS = (1,)


class HandshakeError(ConnectionError):
    """Registration failed: bad protocol, no common version, or a reject."""


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``, with a clear error on junk."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"expected HOST:PORT with an integer port, got {text!r}")


def hello_message(name: str, pid: int) -> tuple:
    return (
        "hello",
        {
            "protocol": PROTOCOL_NAME,
            "versions": list(SUPPORTED_VERSIONS),
            "name": str(name),
            "pid": int(pid),
        },
    )


def negotiate_version(offered: Any) -> int:
    """The highest version both sides implement, or :class:`HandshakeError`."""
    try:
        versions = {int(v) for v in offered}
    except (TypeError, ValueError):
        raise HandshakeError(f"malformed version offer {offered!r}")
    common = versions & set(SUPPORTED_VERSIONS)
    if not common:
        raise HandshakeError(
            f"no common protocol version: peer offers {sorted(versions)}, "
            f"this side implements {list(SUPPORTED_VERSIONS)}"
        )
    return max(common)


class FrameConnection:
    """One socket speaking length-prefixed :mod:`wirecodec` frames.

    ``send`` is internally locked — the agent's heartbeat thread and its
    reply path (and nothing else) interleave writes on one socket, and a
    frame must never be torn.  ``recv`` is single-consumer by design: only
    the owning reader (the registry's per-member reader thread, the agent's
    command loop) calls it.
    """

    def __init__(self, sock: socket.socket) -> None:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, message: Any) -> None:
        data = wirecodec.frame(wirecodec.dumps(message))
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self, timeout: Optional[float] = None) -> Any:
        """One decoded frame; ``EOFError`` on clean close,
        :class:`~repro.fabric.wirecodec.TruncatedFrameError` mid-frame."""
        self._sock.settimeout(timeout)
        return wirecodec.loads(wirecodec.read_frame(self._sock.recv))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass
