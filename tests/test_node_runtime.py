"""The node runtime: the one command loop behind pool workers and node agents.

The same :class:`~repro.fabric.runtime.NodeRuntime` serves a process-pool
worker's pipe and a cluster agent's framed socket; this suite drives it
directly over both channel kinds, in a thread of the test process, with the
exact messages the coordinator side sends.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import threading

import pytest

from repro.cluster.protocol import FrameConnection
from repro.fabric import wirecodec
from repro.fabric.runtime import NodeRuntime
from repro.fabric.transport import SharedRef


def add_task(state, amount):
    """Top-level (picklable by reference): bias-scaled running total."""
    state["total"] += amount * state["bias"]
    return state, state["total"]


def failing_task(state):
    raise RuntimeError("boom in task")


@pytest.fixture(params=["pipe", "socket"])
def channel(request):
    """The coordinator's end of a channel whose other end a runtime serves."""
    if request.param == "pipe":
        coordinator, node = multiprocessing.Pipe()
    else:
        left, right = socket.socketpair()
        coordinator, node = FrameConnection(left), FrameConnection(right)
    server = threading.Thread(target=NodeRuntime().serve, args=(node,), daemon=True)
    server.start()
    yield coordinator
    coordinator.close()
    server.join(timeout=5)
    node.close()
    assert not server.is_alive()


def _call(channel, message):
    channel.send(message)
    return channel.recv()


def _run(channel, session, node_id, fn, *args):
    return _call(
        channel,
        ("run", session, [(node_id, pickle.dumps(fn), wirecodec.dumps(args))]),
    )


def test_runtime_serves_every_command(channel):
    assert _call(channel, ("share", "s", "bias", pickle.dumps(2.0))) == ("ok", None)
    state = {"total": 1.0, "bias": SharedRef("bias")}
    assert _call(channel, ("init", "s", 0, wirecodec.dumps(state))) == ("ok", None)

    # State persists between runs; the SharedRef resolved to the share.
    status, results = _run(channel, "s", 0, add_task, 3.0)
    assert status == "ok" and [wirecodec.loads(r) for r in results] == [7.0]
    status, results = _run(channel, "s", 0, add_task, 1.0)
    assert status == "ok" and [wirecodec.loads(r) for r in results] == [9.0]

    assert _call(channel, ("ping",)) == ("ok", "pong")

    # A raising task answers an error reply and the runtime keeps serving.
    status, body = _run(channel, "s", 0, failing_task)
    assert status == "error" and "boom in task" in body
    status, body = _call(channel, ("bogus", "s"))
    assert status == "error" and "unknown command 'bogus'" in body
    assert _call(channel, ("ping",)) == ("ok", "pong")

    # After release the session's node state is gone.
    assert _call(channel, ("release", "s")) == ("ok", None)
    status, body = _run(channel, "s", 0, add_task, 1.0)
    assert status == "error" and "KeyError" in body

    assert _call(channel, ("stop",)) == ("ok", None)
