"""The node runtime: the one program every remote node runs.

A :class:`NodeRuntime` holds one process's node states (keyed by
``(session, node_id)``, each carrying its node's RNG), the session-shared
values nodes reference through :class:`~repro.fabric.transport.SharedRef`,
and a cache of unpickled task functions.  :meth:`NodeRuntime.serve` answers
commands arriving over a *channel* — any object with ``send``/``recv``: the
child end of a :mod:`multiprocessing` pipe (process-pool workers, started by
:func:`serve_pipe`) or a framed socket
(:class:`~repro.cluster.protocol.FrameConnection`, the cluster's node
agents).  The commands — ``share`` / ``init`` / ``run`` / ``ping`` /
``release`` / ``stop`` — and their replies are tabled in
:mod:`repro.cluster.protocol`; a command that raises (user task code above
all) answers ``("error", traceback)`` and the runtime keeps serving.

Shared values arrive as pickles; a pickled
:class:`~repro.fabric.shm.ShippedObject` re-attaches the owner's
shared-memory segment, and the segments each session pulled in are tracked
so ``release`` unmaps them again (a long-lived worker must not accumulate
maps of unlinked segments).
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any

from . import shm, wirecodec
from .transport import _resolve_shared

__all__ = ["NodeRuntime", "serve_pipe"]


class NodeRuntime:
    """Node states, shared values and task functions of one node process."""

    def __init__(self) -> None:
        self.states: dict[tuple[str, int], Any] = {}
        self.shared: dict[tuple[str, str], Any] = {}
        self.fn_cache: dict[bytes, Any] = {}
        self.session_segments: dict[str, set[str]] = {}

    def serve(self, channel: Any) -> None:
        """Answer commands until ``stop`` or until the peer goes away."""
        while True:
            try:
                message = channel.recv()
            except (EOFError, OSError, wirecodec.TruncatedFrameError):
                return
            try:
                reply = ("ok", self.handle(message))
            except Exception:
                reply = ("error", traceback.format_exc())
            try:
                channel.send(reply)
            except OSError:
                return
            if message[0] == "stop":
                return

    def handle(self, message: tuple) -> Any:
        """Apply one command; its return value is the ``ok`` reply body."""
        command = message[0]
        if command == "run":
            _, session, tasks = message
            results = []
            for node_id, fn_bytes, args_bytes in tasks:
                fn = self.fn_cache.get(fn_bytes)
                if fn is None:
                    fn = self.fn_cache[fn_bytes] = pickle.loads(fn_bytes)
                key = (session, node_id)
                state, result = fn(self.states[key], *wirecodec.loads(args_bytes))
                self.states[key] = state
                results.append(wirecodec.dumps(result))
            return results
        if command == "share":
            _, session, key, value_bytes = message
            with shm.track_attachments() as seen:
                self.shared[(session, key)] = pickle.loads(value_bytes)
            if seen:
                known = self.session_segments.setdefault(session, set())
                fresh = seen - known
                if fresh:
                    shm.retain_attachments(fresh)
                    known.update(fresh)
            return None
        if command == "init":
            _, session, node_id, state_bytes = message
            self.states[(session, node_id)] = _resolve_shared(
                wirecodec.loads(state_bytes), self.shared, session
            )
            return None
        if command == "ping":
            return "pong"
        if command == "release":
            _, session = message
            for table in (self.states, self.shared):
                for key in [k for k in table if k[0] == session]:
                    del table[key]
            names = self.session_segments.pop(session, None)
            if names:
                shm.release_attachments(names)
            return None
        if command == "stop":
            return None
        raise ValueError(f"unknown command {command!r}")


def serve_pipe(conn: Any) -> None:  # pragma: no cover - runs in a child process
    """Process-pool worker entry point: serve one pipe end until stopped."""
    try:
        NodeRuntime().serve(conn)
    finally:
        conn.close()
