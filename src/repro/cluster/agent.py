"""The node agent: one remote process executing fabric node tasks.

``python -m repro node --connect host:port`` dials the coordinator's
:class:`~repro.cluster.registry.ClusterRegistry`; ``--listen host:port``
binds instead and waits for the registry to dial in (useful when only the
coordinator can open outbound connections).  Either way the agent speaks
first: it sends ``hello``, the registry answers ``welcome`` (assigning the
agent id and the heartbeat interval) or ``reject``.

After registration the agent runs the process pool's program — a
:class:`~repro.fabric.runtime.NodeRuntime` serving ``share`` / ``init`` /
``run`` / ``ping`` / ``release`` / ``stop`` over the framed socket — so a
solve lands bit-identically whether its nodes live in a local worker or
across the network.  The agent itself only registers and keeps a daemon
heartbeat thread pushing ``("hb", seq)`` frames on the same socket at the
negotiated interval; the send lock in
:class:`~repro.cluster.protocol.FrameConnection` keeps heartbeat and reply
frames from tearing each other.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Optional, Tuple

from .protocol import FrameConnection, HandshakeError, hello_message
from ..fabric.runtime import NodeRuntime

__all__ = ["NodeAgent"]


class NodeAgent:
    """Registers with a coordinator and executes node tasks until stopped."""

    def __init__(
        self,
        *,
        name: Optional[str] = None,
        heartbeat_interval_s: Optional[float] = None,
    ) -> None:
        self.name = name or f"node-{os.getpid()}"
        self._interval_override = (
            None if heartbeat_interval_s is None else float(heartbeat_interval_s)
        )
        self.agent_id: Optional[str] = None
        self._stop = threading.Event()

    # -- entry points ------------------------------------------------------

    def run_connect(self, address: Tuple[str, int]) -> int:
        """Dial the registry at ``address`` and serve until stopped."""
        sock = socket.create_connection(address, timeout=10.0)
        sock.settimeout(None)
        return self._serve(FrameConnection(sock))

    def run_listen(self, address: Tuple[str, int]) -> int:
        """Bind ``address``, announce it, and serve the registry that dials in."""
        listener = socket.create_server(address, backlog=1)
        host, port = listener.getsockname()[:2]
        # The announcement is the contract for scripts that bind port 0.
        print(f"listening on {host}:{port}", flush=True)
        try:
            sock, _addr = listener.accept()
        finally:
            listener.close()
        return self._serve(FrameConnection(sock))

    # -- registration ------------------------------------------------------

    def _register(self, conn: FrameConnection) -> float:
        conn.send(hello_message(self.name, os.getpid()))
        reply = conn.recv(timeout=10.0)
        if isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "welcome":
            details = dict(reply[1])
            self.agent_id = str(details.get("agent_id", self.name))
            negotiated = float(details.get("heartbeat_interval_s", 0.5))
            return self._interval_override or negotiated
        if isinstance(reply, tuple) and reply and reply[0] == "reject":
            raise HandshakeError(f"registration rejected: {reply[1]}")
        raise HandshakeError(f"unexpected handshake reply {reply!r}")

    def _heartbeat_loop(self, conn: FrameConnection, interval: float) -> None:
        seq = 0
        while not self._stop.wait(interval):
            seq += 1
            try:
                conn.send(("hb", seq))
            except OSError:
                return

    # -- serving -----------------------------------------------------------

    def _serve(self, conn: FrameConnection) -> int:
        interval = self._register(conn)
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(conn, interval),
            name="agent-heartbeat",
            daemon=True,
        )
        beater.start()
        try:
            # Returns on "stop" or when the coordinator goes away.
            NodeRuntime().serve(conn)
            return 0
        finally:
            self._stop.set()
            conn.close()
            beater.join(timeout=1.0)
