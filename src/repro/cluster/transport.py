"""``TcpTransport`` — the fabric's network backend: node tasks over real sockets.

Same contract as the in-process and process-pool transports (states keyed by
``(session, node_id)``, pure ``fn(state, *args) -> (state, result)`` tasks
with state-resident RNGs, payload delivery through canonical wire bytes), so
a solve is bit-identical whichever backend runs it — the cross-transport
grid in ``tests/test_cluster.py`` pins TCP against both.

It is the :class:`~repro.fabric.transport.JournaledTransport` over cluster
members: ``max_workers`` node *slots*, nodes pinned ``node_id %
max_workers``, each slot's channel a registered
:class:`~repro.cluster.agent.NodeAgent` reached through the
:class:`~repro.cluster.registry.ClusterRegistry`.  By default the transport
spawns its own loopback agents (``python -m repro node --connect``) so
single-host callers need no agent management; pass ``addresses=`` to attach
``--listen`` agents on other hosts instead (one slot per address, nothing
spawned).

Socket loss and heartbeat expiry surface as retryable
:class:`~repro.core.exceptions.TransportFailure`, and the journaled
transport's recovery takes over.  A dead member's slots move, in order, to

1. a **surviving** member — shares were broadcast to every member, so only
   the dead slots' node inits and completed batches replay;
2. a **respawned** loopback agent (when this transport spawned its agents),
   up to ``max_restarts`` per failure, replaying shares too;
3. a local process pool (:class:`~repro.fabric.transport.ProcessPoolTransport`,
   ``shared_memory=False``) rebuilt from *all* journals — the **degrade**
   step, flagged via the ambient recovery notes — or a terminal
   ``TransportFailure(retryable=False)`` when ``degrade=False``.

No shared-memory shipping over TCP: a ``ShippedObject`` handle references
local pages a remote host cannot map, so ``init_shared`` ships plain
pickles.  Channel lock order is the member number; a respawned member always
numbers after every existing one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .registry import ClusterRegistry, MemberDead
from ..core.exceptions import TransportFailure
from ..fabric.transport import Channel, JournaledTransport, ProcessPoolTransport, Transport
from ..resilience.retry import RetryPolicy

__all__ = ["TcpTransport"]


def _member_number(member_id: str) -> int:
    """``"agent-12"`` -> 12 (lock/sort order; robust to odd ids)."""
    try:
        return int(member_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0


class _MemberChannel(Channel):
    """One registered node agent, behind the registry's demultiplexed socket."""

    def __init__(
        self, registry: ClusterRegistry, member_id: str, proc: Optional[subprocess.Popen] = None
    ) -> None:
        super().__init__(_member_number(member_id), registry.lock(member_id))
        self.registry = registry
        self.member_id = member_id
        self.proc = proc  # set when this transport spawned the agent

    def __str__(self) -> str:
        return f"node agent {self.member_id}"

    def post(self, message: tuple) -> None:
        try:
            self.registry.post(self.member_id, message)
        except MemberDead as exc:
            raise self._lost(exc, "is unreachable") from exc

    def _reply(self) -> tuple:
        try:
            return self.registry.take(self.member_id)
        except MemberDead as exc:
            raise self._lost(exc, "died mid-request") from exc

    @property
    def pid(self) -> int:
        return self.registry.member_pid(self.member_id)

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=5)
        else:
            os.kill(self.pid, signal.SIGKILL)

    def discard(self) -> None:
        self.registry.forget(self.member_id)
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=5)

    def close(self) -> None:
        # The registry's drain already asked the agent to stop.
        if self.proc is not None:
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                self.proc.kill()
                self.proc.wait(timeout=5)


class TcpTransport(JournaledTransport):
    """Real multi-host workers behind the fabric's transport contract."""

    name = "tcp"

    def __init__(
        self,
        max_workers: int = 2,
        *,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        addresses: Sequence[Tuple[str, int]] = (),
        spawn_agents: Optional[bool] = None,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 2.0,
        registration_timeout_s: float = 30.0,
        max_restarts: int = 3,
        degrade: bool = True,
    ) -> None:
        self.addresses = tuple(tuple(a) for a in addresses)
        super().__init__(len(self.addresses) or max_workers)
        # Spawning defaults to "yes unless explicit agents were given".
        self._spawn = bool(spawn_agents) if spawn_agents is not None else not self.addresses
        self._listen = tuple(listen)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.registration_timeout_s = float(registration_timeout_s)
        # Agents take seconds to boot: respawns need no extra backoff.
        self.restart_policy = RetryPolicy(max_attempts=int(max_restarts), backoff_s=0.0)
        self.degrade_enabled = bool(degrade)
        self._journal = {}
        self.registry: Optional[ClusterRegistry] = None
        self._agent_counter = 0
        self._spawn_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Cluster lifecycle (JournaledTransport hooks)
    # ------------------------------------------------------------------ #

    def _open_channels(self) -> List[Channel]:
        registry = self.registry = ClusterRegistry(
            self._listen,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            registration_timeout_s=self.registration_timeout_s,
        )
        if self.addresses:
            return [_MemberChannel(registry, registry.connect(a)) for a in self.addresses]
        procs = [self._launch_agent() for _ in range(self.max_workers)] if self._spawn else []
        members = registry.wait_for(self.max_workers, timeout=self.registration_timeout_s)
        by_pid = {proc.pid: proc for proc in procs}
        return [
            _MemberChannel(registry, member, by_pid.get(registry.member_pid(member)))
            for member in sorted(members, key=_member_number)[: self.max_workers]
        ]

    def _launch_agent(self) -> subprocess.Popen:
        """Start one loopback agent process dialing this registry."""
        assert self.registry is not None
        self._agent_counter += 1
        host, port = self.registry.address
        env = dict(os.environ)
        # Loopback agents mirror multiprocessing spawn: they inherit the
        # coordinator's import paths so task functions pickled by reference
        # (including ones from the driving script's directory) resolve.
        src_root = str(Path(__file__).resolve().parents[2])
        paths = [src_root] + [p for p in sys.path if p]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "node",
                "--connect",
                f"{host}:{port}",
                "--name",
                f"loopback-{self._agent_counter}",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _survivor(self) -> Optional[Channel]:
        alive = set(self.registry.alive_members())
        survivors = [c for c in self._channels if c.member_id in alive]
        return min(survivors, key=lambda c: c.order, default=None)

    def _respawn(self, slot: int) -> Optional[Channel]:
        """A freshly spawned loopback agent (``None`` for external agents)."""
        if not self._spawn:
            return None
        registry = self.registry
        with self._spawn_lock:
            before = set(registry.alive_members())
            proc = self._launch_agent()
            deadline = time.monotonic() + self.registration_timeout_s
            while time.monotonic() < deadline and proc.poll() is None:
                fresh = set(registry.alive_members()) - before
                if fresh:
                    return _MemberChannel(registry, max(fresh, key=_member_number), proc)
                time.sleep(0.02)
            proc.kill()
            proc.wait(timeout=5)
        raise TransportFailure(
            "a respawned node agent never registered", retryable=True, worker=slot
        )

    def _make_fallback(self) -> Transport:
        fallback = ProcessPoolTransport(max_workers=self.max_workers, shared_memory=False)
        fallback.warm_up()
        return fallback

    def _close_channels(self) -> None:
        self.registry.drain()
        for channel in self._distinct_channels():
            channel.close()

    def _health_detail(self) -> dict:
        if self.registry is None:
            return {}
        cluster = self.registry.health()
        cluster["slots"] = {
            str(slot): channel.member_id for slot, channel in enumerate(self._channels)
        }
        return {"cluster": cluster}

    # ------------------------------------------------------------------ #
    # Chaos / introspection hooks
    # ------------------------------------------------------------------ #

    def agent_pids(self) -> List[int]:
        """Pid per slot (benchmark memory probes, chaos tests)."""
        self._ensure_started()
        return [channel.pid for channel in self._channels]

    def kill_agent(self, slot: int) -> None:
        """SIGKILL the agent behind one slot (deterministic fault injection)."""
        self._ensure_started()
        self._channels[slot].kill()

