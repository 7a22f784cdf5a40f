"""Coordinator-side cluster membership.

The :class:`ClusterRegistry` owns every socket the coordinator holds open to
node agents.  Structure:

* one **listener** socket + accept thread performs the registration
  handshake (``hello`` -> version negotiation -> ``welcome``/``reject``)
  for agents dialing in with ``--connect``; :meth:`connect` dials agents
  running with ``--listen`` and performs the same handshake client-side
  (the agent still speaks first);
* one **reader thread per member** demultiplexes the member's socket:
  ``("hb", seq)`` frames feed the :class:`HeartbeatMonitor`, everything
  else is an RPC reply pushed onto the member's FIFO reply queue.  Replies
  arrive in request order because the agent's command loop is
  single-threaded and each member's RPC lock (:meth:`lock`) is held
  across every ``post``/``take`` pair;
* one **monitor thread** sweeps :meth:`HeartbeatMonitor.evaluate`; a member
  that newly dies (heartbeat expiry, registration timeout, or socket loss)
  has its socket closed, which unblocks its reader and pushes a dead
  sentinel so any pending RPC fails immediately with :class:`MemberDead`
  instead of hanging.

The registry is transport-agnostic infrastructure: it raises its own
:class:`MemberDead`; the member channels of
:class:`repro.cluster.transport.TcpTransport` convert that into a typed
``TransportFailure(retryable=True)`` and the journaled transport drives
journal-replay recovery.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .membership import HeartbeatMonitor
from .protocol import (
    FrameConnection,
    HandshakeError,
    PROTOCOL_NAME,
    SUPPORTED_VERSIONS,
    negotiate_version,
)
from ..fabric.wirecodec import TruncatedFrameError

__all__ = ["ClusterRegistry", "Member", "MemberDead"]

_DEAD = object()  # reply-queue sentinel: the member died mid-RPC

#: How long the handshake may take before the connector is rejected.
_HANDSHAKE_TIMEOUT_S = 10.0


class MemberDead(ConnectionError):
    """An RPC's target member died (socket loss or heartbeat expiry)."""

    def __init__(self, member_id: str, reason: str) -> None:
        super().__init__(f"cluster member {member_id} is dead: {reason}")
        self.member_id = member_id
        self.reason = reason


class Member:
    """One registered agent: its connection, reply queue, and identity."""

    def __init__(self, member_id: str, conn: FrameConnection, info: Dict[str, Any]) -> None:
        self.member_id = member_id
        self.conn = conn
        self.name = str(info.get("name", member_id))
        self.pid = int(info.get("pid", 0))
        self.replies: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self.rpc_lock = threading.Lock()
        self.failed = False
        self.fail_reason = ""
        self.reader: Optional[threading.Thread] = None


class ClusterRegistry:
    """Membership, liveness, and per-member RPC for a set of node agents."""

    def __init__(
        self,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 2.0,
        registration_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.monitor = HeartbeatMonitor(
            heartbeat_timeout_s=heartbeat_timeout_s,
            registration_timeout_s=registration_timeout_s,
            clock=clock,
        )
        self._lock = threading.Lock()
        self._members: Dict[str, Member] = {}
        self._ids = itertools.count(1)
        self._ready = threading.Condition(self._lock)
        self._closing = threading.Event()

        self._listener = socket.create_server(listen, backlog=16)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor_thread.start()

    # -- registration ------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed during drain
            threading.Thread(
                target=self._handshake_guarded,
                args=(sock,),
                name="cluster-handshake",
                daemon=True,
            ).start()

    def _handshake_guarded(self, sock: socket.socket) -> None:
        try:
            self._handshake(FrameConnection(sock))
        except (HandshakeError, EOFError, TruncatedFrameError, OSError, ValueError):
            try:
                sock.close()
            except OSError:
                pass

    def _handshake(self, conn: FrameConnection) -> Member:
        """Server side of the handshake; the peer (agent) speaks first."""
        message = conn.recv(timeout=_HANDSHAKE_TIMEOUT_S)
        if not (isinstance(message, tuple) and len(message) == 2 and message[0] == "hello"):
            conn.send(("reject", "expected hello"))
            conn.close()
            raise HandshakeError(f"expected hello, got {message!r}")
        info = dict(message[1])
        if info.get("protocol") != PROTOCOL_NAME:
            conn.send(("reject", f"unknown protocol {info.get('protocol')!r}"))
            conn.close()
            raise HandshakeError(f"unknown protocol {info.get('protocol')!r}")
        try:
            version = negotiate_version(info.get("versions", ()))
        except HandshakeError as exc:
            conn.send(("reject", str(exc)))
            conn.close()
            raise

        member_id = f"agent-{next(self._ids)}"
        member = Member(member_id, conn, info)
        self.monitor.register(member_id)
        conn.send(
            (
                "welcome",
                {
                    "version": version,
                    "agent_id": member_id,
                    "heartbeat_interval_s": self.heartbeat_interval_s,
                },
            )
        )
        self.monitor.ready(member_id)
        member.reader = threading.Thread(
            target=self._reader_loop,
            args=(member,),
            name=f"cluster-reader-{member_id}",
            daemon=True,
        )
        with self._ready:
            self._members[member_id] = member
            self._ready.notify_all()
        member.reader.start()
        return member

    def connect(self, address: Tuple[str, int], *, timeout: float = 10.0) -> str:
        """Dial an agent running in ``--listen`` mode; returns its member id."""
        sock = socket.create_connection(address, timeout=timeout)
        sock.settimeout(None)
        member = self._handshake(FrameConnection(sock))
        return member.member_id

    def wait_for(self, count: int, timeout: float = 30.0) -> List[str]:
        """Block until ``count`` members are alive; returns their ids."""
        deadline = time.monotonic() + timeout
        with self._ready:
            while True:
                alive = [m for m in self._members if not self._members[m].failed]
                if len(alive) >= count:
                    return sorted(alive)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"cluster has {len(alive)}/{count} members after {timeout}s"
                    )
                self._ready.wait(remaining)

    # -- socket demultiplexing ---------------------------------------------

    def _reader_loop(self, member: Member) -> None:
        conn = member.conn
        while True:
            try:
                message = conn.recv(timeout=None)
            except (EOFError, TruncatedFrameError, OSError, ValueError):
                self._member_lost(member, "connection lost")
                return
            if isinstance(message, tuple) and message and message[0] == "hb":
                self.monitor.beat(member.member_id)
            else:
                member.replies.put(message)

    def _member_lost(self, member: Member, reason: str) -> None:
        self.monitor.mark_dead(member.member_id, reason)
        member.failed = True
        member.fail_reason = member.fail_reason or reason
        member.replies.put(_DEAD)
        member.conn.close()

    def _monitor_loop(self) -> None:
        interval = max(0.05, self.heartbeat_interval_s / 2.0)
        while not self._closing.wait(interval):
            for member_id, reason in self.monitor.evaluate():
                member = self._members.get(member_id)
                if member is not None:
                    # Closing the socket unblocks the reader, which pushes the
                    # dead sentinel and fails any pending RPC.
                    self._member_lost(member, reason)

    # -- RPC ---------------------------------------------------------------

    def _member(self, member_id: str) -> Member:
        member = self._members.get(member_id)
        if member is None:
            raise MemberDead(member_id, "unknown member")
        return member

    def lock(self, member_id: str) -> threading.Lock:
        """The member's RPC lock — hold it across a ``post``/``take`` pair."""
        return self._member(member_id).rpc_lock

    def post(self, member_id: str, message: tuple) -> None:
        """Ship one command frame without waiting for its reply."""
        member = self._member(member_id)
        if member.failed:
            raise MemberDead(member_id, member.fail_reason or "dead")
        try:
            member.conn.send(message)
        except OSError as exc:
            self._member_lost(member, f"send failed: {exc}")
            raise MemberDead(member_id, member.fail_reason) from exc

    def take(self, member_id: str, *, timeout: Optional[float] = None) -> Any:
        """The member's next reply (FIFO: replies arrive in request order)."""
        member = self._member(member_id)
        try:
            reply = member.replies.get(timeout=timeout)
        except queue.Empty as exc:
            self._member_lost(member, f"reply timeout after {timeout}s")
            raise MemberDead(member_id, member.fail_reason) from exc
        if reply is _DEAD:
            # Re-arm the sentinel: every pending/later take must fail too.
            member.replies.put(_DEAD)
            raise MemberDead(member_id, member.fail_reason or "dead")
        return reply

    # -- introspection -----------------------------------------------------

    def alive_members(self) -> List[str]:
        with self._lock:
            return sorted(m for m, member in self._members.items() if not member.failed)

    def member_pid(self, member_id: str) -> int:
        return self._members[member_id].pid

    def health(self) -> Dict[str, Any]:
        liveness = self.monitor.snapshot()
        return {
            "address": f"{self.address[0]}:{self.address[1]}",
            "members": len(liveness),
            "ready": sum(1 for s in liveness.values() if s["state"] == "ready"),
            "liveness": {
                member_id: dict(state) for member_id, state in sorted(liveness.items())
            },
        }

    # -- drain -------------------------------------------------------------

    def forget(self, member_id: str) -> None:
        """Drop a (dead) member so it no longer counts toward membership."""
        with self._ready:
            member = self._members.pop(member_id, None)
        self.monitor.forget(member_id)
        if member is not None:
            member.conn.close()

    def drain(self) -> None:
        """Politely stop every live agent, then tear the registry down."""
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            members = list(self._members.values())
        for member in members:
            if not member.failed:
                try:
                    with member.rpc_lock:
                        self.post(member.member_id, ("stop",))
                        self.take(member.member_id, timeout=5.0)
                except MemberDead:
                    pass
            member.conn.close()
            self.monitor.forget(member.member_id)
        with self._ready:
            self._members.clear()
        self._monitor_thread.join(timeout=2.0)
