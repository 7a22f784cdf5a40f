"""Transports: where node-local computation runs and how payloads travel.

A :class:`Transport` owns the *execution substrate* of a topology's nodes
(coordinator sites, MPC machines, the stream reader).  Node state lives with
the transport, keyed by ``(session, node_id)``; a topology runs node-local
work by handing the transport a **top-level function** ``fn(state, *args) ->
(state, result)``.  The implementations:

* :class:`InProcessTransport` — the default simulator: states in a dict,
  tasks run inline in deterministic node order (or once over all listed
  states, for a task with a ``batched`` form), payloads delivered zero-copy.
* :class:`JournaledTransport` — node states held by remote
  :class:`~repro.fabric.runtime.NodeRuntime` programs behind one
  :class:`Channel` per node slot, with journal-replay recovery.  Its
  backends are :class:`ProcessPoolTransport` (pipes to spawned workers; the
  supervised variant lives in :mod:`repro.resilience.supervisor`) and
  :class:`~repro.cluster.transport.TcpTransport` (sockets to node agents).

All run the *same* task functions on the *same* per-node states (RNG
generators ship inside the state, so random streams advance identically),
which is why a solve is bit-identical across transports — the cross-transport
determinism tests pin this.

:func:`build_transport` is the one place a
:class:`~repro.api.config.TransportConfig` becomes a transport.
:func:`shared_transport` keeps one process-wide instance per distinct build
so many solves reuse the same workers: states are namespaced per session,
so concurrent solves (e.g. ``solve_many(max_workers > 1)``) cannot observe
each other.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import pickle
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from ..core.exceptions import CommunicationError, TransportFailure
from ..resilience.faults import active_fault_plan, active_recovery_notes, faulted_delivery
from ..resilience.retry import RetryPolicy
from . import shm, wirecodec
from .payload import Payload, decode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.config import TransportConfig

__all__ = [
    "SharedRef",
    "Transport",
    "InProcessTransport",
    "Channel",
    "JournaledTransport",
    "ProcessPoolTransport",
    "build_transport",
    "pinned_transport",
    "resolve_transport",
    "shared_process_transport",
    "shared_transport",
]

_SESSION_COUNTER = itertools.count()


def new_session() -> str:
    """A process-unique session key for one solve's node states."""
    return f"s{next(_SESSION_COUNTER)}"


@dataclass(frozen=True)
class SharedRef:
    """Placeholder for a session-shared object inside a node state dict.

    Large read-only objects every node needs (the problem instance, above
    all) are installed once per session with ``Transport.init_shared`` and
    referenced from node states as ``SharedRef(key)``; the transport resolves
    the reference when the state is installed.  On the process transport the
    object is shipped once per *worker* instead of once per node — for MPC's
    ``k ~ n^(1-delta)`` machines that removes an ``O(k * n)`` pickling and
    memory blow-up.
    """

    key: str


def _resolve_shared(state: Any, shared: dict, session: str) -> Any:
    """Replace top-level ``SharedRef`` values of a state dict (documented
    contract: references are only resolved at the first nesting level)."""
    if isinstance(state, dict):
        return {
            name: shared[(session, value.key)] if isinstance(value, SharedRef) else value
            for name, value in state.items()
        }
    return state


class Transport:
    """Execution + delivery contract shared by all transports.

    ``fn`` passed to :meth:`run_node` / :meth:`run_nodes` must be a picklable
    top-level function with signature ``fn(state, *args) -> (state, result)``;
    the transport stores the returned state for the next call on that node.

    A task may also carry a vectorised form as its ``batched`` attribute:
    ``fn.batched(states, args_list) -> results`` updates the listed node
    states in place and returns exactly the results, and leaves exactly the
    states, that ``fn`` would have node by node.  Only
    :class:`InProcessTransport`, which holds every state locally, calls it;
    remote transports ship ``fn`` by reference and run the per-node form in
    their workers, so ``fn`` stays the reference semantics.

    ``private`` marks a transport owned by a single run: the topology that
    holds it calls :meth:`close` when the run ends (shared pools stay up).
    """

    name = "transport"
    private = False

    #: Fault plan attached directly to this transport (chaos tests that must
    #: reach thread-pool workers, where the ambient contextvar plan does not
    #: travel).  ``None`` means "consult the ambient plan only".
    _fault_plan = None

    def attach_fault_plan(self, plan) -> None:
        """Attach a :class:`~repro.resilience.faults.FaultPlan` (or ``None``).

        Unlike :func:`~repro.resilience.faults.fault_injection`, an attached
        plan is consulted from *every* thread that uses this transport.
        """
        self._fault_plan = plan

    def _active_plan(self):
        plan = self._fault_plan
        return plan if plan is not None else active_fault_plan()

    def health(self) -> dict:
        """Liveness / degradation summary (deepened by remote transports)."""
        return {"kind": self.name, "supervised": False, "degraded": False}

    def init_shared(self, session: str, key: str, value: Any) -> None:
        """Install one session-shared object (referenced via ``SharedRef``)."""
        raise NotImplementedError

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        """Install the initial state of one node (resolving ``SharedRef``s)."""
        raise NotImplementedError

    def run_nodes(
        self,
        session: str,
        node_ids: Sequence[int],
        fn: Callable[..., Any],
        args_list: Sequence[tuple],
    ) -> list[Any]:
        """Run ``fn`` on every listed node; results in ``node_ids`` order."""
        raise NotImplementedError

    def run_node(self, session: str, node_id: int, fn: Callable[..., Any], *args: Any) -> Any:
        return self.run_nodes(session, [node_id], fn, [args])[0]

    def deliver(self, payload: Payload) -> Payload:
        """The payload as the receiver observes it."""
        raise NotImplementedError

    def release(self, session: str) -> None:
        """Drop every node state of one session."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the transport down (no-op for in-process)."""


class InProcessTransport(Transport):
    """The deterministic, zero-copy default: everything runs inline."""

    name = "inprocess"

    def __init__(self) -> None:
        self._states: dict[tuple[str, int], Any] = {}
        self._shared: dict[tuple[str, str], Any] = {}

    def init_shared(self, session: str, key: str, value: Any) -> None:
        self._shared[(session, key)] = value

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        self._states[(session, node_id)] = _resolve_shared(state, self._shared, session)

    def run_nodes(self, session, node_ids, fn, args_list):
        batched = getattr(fn, "batched", None)
        if batched is not None and len(node_ids) > 0:
            # All listed states are local: one vectorised call serves them.
            return batched(
                [self._states[(session, node_id)] for node_id in node_ids],
                list(args_list),
            )
        results = []
        for node_id, args in zip(node_ids, args_list):
            key = (session, node_id)
            state, result = fn(self._states[key], *args)
            self._states[key] = state
            results.append(result)
        return results

    def deliver(self, payload: Payload) -> Payload:
        plan = self._active_plan()
        if plan is not None:
            return faulted_delivery(plan, payload, lambda p: p)
        return payload

    def release(self, session: str) -> None:
        for table in (self._states, self._shared):
            for key in [k for k in table if k[0] == session]:
                del table[key]


# ---------------------------------------------------------------------- #
# Channels and the journaled transport
# ---------------------------------------------------------------------- #


class Channel:
    """The coordinator's end of one node runtime: ordered request/reply.

    :meth:`post` ships one command and :meth:`take` returns the next reply
    body; both raise a retryable :class:`TransportFailure` once the runtime
    is gone.  An ``("error", traceback)`` reply — user task code raised in a
    live runtime — becomes a plain :class:`CommunicationError` instead: not
    an infrastructure fault, so no restart can fix it.  ``lock`` serialises
    post/take pairs and ``order`` is the channel's place in the lock order.
    """

    def __init__(self, order: int, lock: Any = None) -> None:
        self.order = order
        self.lock = lock if lock is not None else threading.RLock()

    def post(self, message: tuple) -> None:
        raise NotImplementedError

    def _reply(self) -> tuple:
        raise NotImplementedError

    def take(self) -> Any:
        status, body = self._reply()
        if status == "error":
            raise CommunicationError(f"{self} failed:\n{body}")
        return body

    def call(self, message: tuple) -> Any:
        with self.lock:
            self.post(message)
            return self.take()

    def _lost(self, exc: BaseException, what: str) -> TransportFailure:
        return TransportFailure(f"{self} {what}: {exc!r}", retryable=True, worker=self.order)

    def kill(self) -> None:
        """SIGKILL the runtime's process (deterministic fault injection)."""
        raise NotImplementedError

    def discard(self) -> None:
        """Drop a failed (or abandoned) runtime for good; idempotent."""

    def close(self) -> None:
        """Stop a healthy runtime at transport shutdown."""


class _SessionJournal:
    """Everything needed to rebuild one session's remote state.

    ``ops`` is the ordered log of shares and node inits (order matters: a
    ``SharedRef`` is resolved against the shares installed before the init);
    ``tasks`` maps ``node_id`` to the ordered list of completed task triples
    since that node's most recent init.
    """

    __slots__ = ("ops", "tasks")

    def __init__(self) -> None:
        self.ops: list[tuple] = []  # ("share", key, pickle) | ("init", node_id, frame)
        self.tasks: dict[int, list[tuple[int, bytes, bytes]]] = {}


def _run_logged(transport: Transport, session: str, triples: Sequence[tuple]) -> None:
    """Re-apply journaled task triples on ``transport`` (results discarded)."""
    for node_id, fn_bytes, args_bytes in triples:
        transport.run_nodes(
            session, [node_id], pickle.loads(fn_bytes), [wirecodec.loads(args_bytes)]
        )


class JournaledTransport(Transport):
    """Node states on remote runtimes, one :class:`Channel` per node slot.

    Nodes are pinned to slots ``node_id % max_workers``.  This class owns
    the wire protocol and recovery; backends supply the channels
    (:meth:`_open_channels`), replacements (:meth:`_survivor`,
    :meth:`_respawn`) and the degrade target (:meth:`_make_fallback`).

    With a journal kept (:attr:`supervised`), shares and inits are logged
    before they are sent and each fully successful task batch is committed
    after.  A lost runtime's slots move to a surviving runtime (shares are
    broadcast, so it already holds them), else to a respawned one — up to
    ``restart_policy.max_attempts`` respawns *per failure* — and the
    replacement replays the slots' journal: inits, then the completed
    batches re-run on the pure task functions, so recovered states (RNG
    streams included) match the pre-failure ones bit for bit and the
    re-run in-flight batch yields exactly the lost runtime's results.  Out
    of replacements, the transport degrades to :meth:`_make_fallback`
    rebuilt from *all* journals when ``degrade_enabled``, else raises a
    terminal ``TransportFailure(retryable=False)`` — or, without a journal,
    the original retryable failure.

    Known caveat: batches are journaled only after the *whole* batch
    succeeded, so a task-level error leaves runtime states ahead of the
    journal — acceptable because a task error aborts the solve and releases
    the session anyway.  Lock order: slot locks ascending, then channel
    locks by ``order``.
    """

    #: Export shared values' large arrays to POSIX shared memory.
    shared_memory = False

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        # Supervising backends replace these four.
        self._journal: Optional[dict[str, _SessionJournal]] = None
        self.restart_policy = RetryPolicy(max_attempts=0)
        self.degrade_enabled = False
        self._rng = Random(0)
        self._journal_lock = threading.Lock()
        self._channels: list[Channel] = []
        self._slot_locks: list[threading.RLock] = []
        self._started = False
        self._start_lock = threading.Lock()
        self._closed = False
        # pickle.dumps(fn) per (session, fn): task functions are shipped by
        # reference and recur every round, so the dumps is paid once.
        self._fn_cache: dict[tuple[str, Any], bytes] = {}
        self._fn_cache_lock = threading.Lock()
        self.total_restarts = 0
        self.restarts_per_slot = [0] * self.max_workers
        self.degraded = False
        self._fallback: Optional[Transport] = None

    @property
    def supervised(self) -> bool:
        return self._journal is not None

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #

    def _open_channels(self) -> list[Channel]:
        """One live channel per slot."""
        raise NotImplementedError

    def _survivor(self) -> Optional[Channel]:
        """A live channel that can take over a lost one's slots."""
        return None

    def _respawn(self, slot: int) -> Optional[Channel]:
        """A fresh runtime for ``slot`` (``None``: this backend cannot start one)."""
        return None

    def _make_fallback(self) -> Transport:
        """The local transport a degraded run continues on."""
        raise NotImplementedError

    def _close_channels(self) -> None:
        for slot, channel in enumerate(self._channels):
            with self._slot_locks[slot]:
                channel.close()

    def _health_detail(self) -> dict:
        return {}

    # ------------------------------------------------------------------ #
    # Lifecycle and liveness
    # ------------------------------------------------------------------ #

    def _ensure_started(self) -> None:
        if self._started:
            return
        with self._start_lock:
            if self._started:
                return
            if self._closed:
                raise CommunicationError("transport is closed")
            self._channels = self._open_channels()
            self._slot_locks = [threading.RLock() for _ in range(self.max_workers)]
            self._started = True

    def warm_up(self) -> None:
        """Start the runtimes now (sessions pay start-up once, up front)."""
        self._ensure_started()

    def _slot_for(self, node_id: int) -> int:
        return int(node_id) % self.max_workers

    def _distinct_channels(self, slots: Optional[Sequence[int]] = None) -> list[Channel]:
        """Each channel behind ``slots`` (default: all) once, in lock order."""
        chosen = self._channels if slots is None else [self._channels[s] for s in slots]
        return sorted({id(c): c for c in chosen}.values(), key=lambda c: c.order)

    def ping(self) -> list[bool]:
        """Round-trip probe per slot; a lost runtime is recovered in passing."""
        if self._fallback is None:
            self._ensure_started()
        alive = []
        for slot in range(self.max_workers):
            try:
                ok = self._fallback is None and self._request(slot, ("ping",)) in ("pong", None)
            except CommunicationError:
                ok = False
            alive.append(ok and self._fallback is None)
        return alive

    def health(self) -> dict:
        return {
            "kind": self.name,
            "supervised": self.supervised,
            "degraded": self.degraded,
            "total_restarts": self.total_restarts,
            **self._health_detail(),
        }

    # ------------------------------------------------------------------ #
    # Journal and recovery
    # ------------------------------------------------------------------ #

    def _log(self, session: str, op: tuple) -> None:
        """Journal one share/init before it is sent (replay then covers it)."""
        if self._journal is None:
            return
        with self._journal_lock:
            journal = self._journal.setdefault(session, _SessionJournal())
            journal.ops.append(op)
            if op[0] == "init":
                journal.tasks[op[1]] = []  # a re-init resets the task log

    def _commit_batch_locked(self, session: str, per_slot: dict) -> None:
        """Journal a fully successful batch (the recovery baseline)."""
        if self._journal is None:
            return
        with self._journal_lock:
            if self._fallback is not None:
                # Degraded concurrently after this batch completed remotely:
                # advance the fallback with the same pure tasks so its states
                # match the results this thread already collected.
                for batch in per_slot.values():
                    _run_logged(self._fallback, session, batch)
                return
            journal = self._journal.setdefault(session, _SessionJournal())
            for batch in per_slot.values():
                for triple in batch:
                    journal.tasks.setdefault(triple[0], []).append(triple)

    def _request(self, slot: int, message: tuple) -> Any:
        """One request with recover-on-failure, for share / init / release /
        ping only: the journal holds shares and inits before they are sent,
        so a recovery re-applies them and ``None`` is returned instead."""
        with self._slot_locks[slot]:
            channel = self._channels[slot]
            try:
                return channel.call(message)
            except TransportFailure as exc:
                self._recover_locked(slot, channel, exc)
                return None

    def _recover_locked(self, slot: int, failed: Channel, exc: TransportFailure) -> bool:
        """Give ``slot`` a live runtime again after ``failed`` broke with ``exc``.

        True once every slot ``failed`` served runs on a replacement with
        its journal replayed; False after degrading.  Raises when giving up
        without degradation.
        """
        if self._fallback is not None:
            return False
        if self._channels[slot] is not failed:
            return True  # a sibling slot's recovery already replaced it
        attempt = 0
        while True:
            slots = [s for s, c in enumerate(self._channels) if c is failed]
            failed.discard()
            channel = self._survivor()
            fresh = channel is None
            if fresh:
                if attempt >= self.restart_policy.max_attempts:
                    return self._give_up_locked(slot, exc)
                time.sleep(self.restart_policy.delay(attempt, self._rng))
                attempt += 1
                try:
                    channel = self._respawn(slot)
                except TransportFailure as err:
                    exc = err
                    continue
                if channel is None:
                    return self._give_up_locked(slot, exc)
            for s in slots:
                self._channels[s] = channel
            try:
                self._replay_locked(channel, slots, fresh)
            except TransportFailure as err:
                failed, exc = channel, err  # the replacement died too
                continue
            self.total_restarts += 1
            for s in slots:
                self.restarts_per_slot[s] += 1
            notes = active_recovery_notes()
            if notes is not None:
                notes.restarts += 1
                how = "respawned" if fresh else "surviving"
                notes.note(f"slots {slots} recovered on {how} {channel}")
            return True

    def _replay_locked(self, channel: Channel, slots: Sequence[int], include_shares: bool) -> None:
        """Re-establish ``slots``' node states on ``channel`` from the journal.

        A survivor already holds every share (shares are broadcast), so only
        a fresh runtime gets them.  Completed batches re-run to advance the
        node states to the pre-failure point; their results are discarded
        (they were returned to the caller before the failure).
        """
        wanted = set(slots)
        with self._journal_lock:
            snapshot = [
                (
                    session,
                    [
                        op
                        for op in journal.ops
                        if (op[0] == "share" and include_shares)
                        or (op[0] == "init" and self._slot_for(op[1]) in wanted)
                    ],
                    [
                        list(triples)
                        for node_id, triples in journal.tasks.items()
                        if triples and self._slot_for(node_id) in wanted
                    ],
                )
                for session, journal in self._journal.items()
            ]
        for session, ops, task_lists in snapshot:
            for kind, target, data in ops:
                channel.call((kind, session, target, data))
            for triples in task_lists:
                channel.call(("run", session, triples))

    def _give_up_locked(self, slot: int, exc: TransportFailure) -> bool:
        """No replacement left: degrade (returns False) or raise."""
        if self.degrade_enabled:
            self._degrade_locked()
            return False
        if not self.supervised:
            raise exc
        attempts = self.restart_policy.max_attempts
        raise TransportFailure(
            f"slot {slot} is unrecoverable after {attempts} restart attempt(s) "
            "and degradation is disabled",
            retryable=False,
            worker=slot,
            attempts=attempts,
        ) from exc

    def _degrade_locked(self) -> None:
        """Switch to :meth:`_make_fallback`, rebuilt from every journal."""
        fallback = self._make_fallback()
        with self._journal_lock:
            for session, journal in self._journal.items():
                for kind, target, data in journal.ops:
                    if kind == "share":
                        # A shm-backed share is a pickled ShippedObject:
                        # loading it attaches the segment *in this process*
                        # and the fallback works over the same shared views.
                        fallback.init_shared(session, target, pickle.loads(data))
                    else:
                        fallback.init_node(session, target, wirecodec.loads(data))
                for triples in journal.tasks.values():
                    _run_logged(fallback, session, triples)
            self._fallback = fallback
            self.degraded = True
        for channel in self._distinct_channels():
            channel.discard()
        notes = active_recovery_notes()
        if notes is not None:
            notes.degraded = True
            notes.note(f"{self.name} transport unrecoverable: degraded to {fallback.name}")

    def _rerun_failed_locked(
        self,
        slot: int,
        session: str,
        batch: list,
        raw: dict,
        failed: Channel,
        exc: TransportFailure,
    ) -> None:
        """Recover the slot, then re-run its (unjournaled) batch there."""
        reruns = 0
        while self._recover_locked(slot, failed, exc):
            channel = self._channels[slot]
            try:
                raw[slot] = channel.call(("run", session, batch))
                return
            except TransportFailure as err:
                reruns += 1
                if reruns >= max(1, self.restart_policy.max_attempts):
                    self._give_up_locked(slot, err)
                    return
                failed, exc = channel, err

    # ------------------------------------------------------------------ #
    # Transport API
    # ------------------------------------------------------------------ #

    def _fn_bytes(self, session: str, fn: Callable[..., Any]) -> bytes:
        """``pickle.dumps(fn)``, cached per ``(session, fn)``."""
        cache_key = (session, fn)
        cached = self._fn_cache.get(cache_key)
        if cached is None:
            cached = pickle.dumps(fn)  # by reference: fn must be top-level
            with self._fn_cache_lock:
                self._fn_cache[cache_key] = cached
        return cached

    def init_shared(self, session: str, key: str, value: Any) -> None:
        """Ship one session-shared object to every slot, once each.

        With ``shared_memory`` the object's large contiguous arrays are
        exported to a POSIX shared-memory segment owned by this session
        (plus any ambient pin, e.g. the API session's lifetime token); the
        pickle shipped — and journaled — then carries a segment *reference*
        instead of the array bytes, every worker maps the same physical
        pages, and a replay re-maps them.
        """
        if self._fallback is not None:
            self._fallback.init_shared(session, key, value)
            return
        self._ensure_started()
        if self.shared_memory:
            value = shm.store().export(value, owner=session)
        value_bytes = pickle.dumps(value)
        self._log(session, ("share", key, value_bytes))
        # Broadcast to every slot, so a survivor taking over slots already
        # holds the session's shares.  After a mid-loop degrade the fallback
        # was rebuilt from the journal, which holds this share.
        for slot in range(self.max_workers):
            if self._fallback is not None:
                return
            self._request(slot, ("share", session, key, value_bytes))

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        if self._fallback is not None:
            self._fallback.init_node(session, node_id, state)
            return
        self._ensure_started()
        state_bytes = wirecodec.dumps(state)
        self._log(session, ("init", node_id, state_bytes))
        self._request(self._slot_for(node_id), ("init", session, node_id, state_bytes))

    def run_nodes(self, session, node_ids, fn, args_list):
        if self._fallback is not None:
            return self._fallback.run_nodes(session, node_ids, fn, args_list)
        self._ensure_started()
        fn_bytes = self._fn_bytes(session, fn)
        per_slot: dict[int, list[tuple[int, bytes, bytes]]] = {}
        order: list[tuple[int, int]] = []  # (slot, position in its batch)
        for node_id, args in zip(node_ids, args_list):
            slot = self._slot_for(node_id)
            batch = per_slot.setdefault(slot, [])
            order.append((slot, len(batch)))
            batch.append((node_id, fn_bytes, wirecodec.dumps(tuple(args))))
        slots = sorted(per_slot)
        for slot in slots:
            self._slot_locks[slot].acquire()
        try:
            plan = self._active_plan() if self.supervised else None
            if plan is not None:
                for slot in slots:
                    spec = plan.take("dispatch", node=slot)
                    if spec is not None and spec.kind == "worker_crash":
                        self._channels[slot].kill()
            # Ship every slot its batch before collecting any reply, so the
            # runtimes genuinely run in parallel.  On failure the reply of
            # every runtime that was sent a batch is still drained: an
            # unread reply left in a (shared!) channel would hand the *next*
            # batch this batch's stale results.
            raw: dict[int, list[bytes]] = {}
            failed: dict[int, tuple[Channel, TransportFailure]] = {}
            task_errors: list[CommunicationError] = []
            channels = self._distinct_channels(slots)
            for channel in channels:
                channel.lock.acquire()
            try:
                sent = []
                for slot in slots:
                    channel = self._channels[slot]
                    try:
                        channel.post(("run", session, per_slot[slot]))
                        sent.append(slot)
                    except TransportFailure as exc:
                        failed[slot] = (channel, exc)
                for slot in sent:
                    channel = self._channels[slot]
                    try:
                        raw[slot] = channel.take()
                    except TransportFailure as exc:
                        failed[slot] = (channel, exc)
                    except CommunicationError as exc:
                        task_errors.append(exc)
            finally:
                for channel in channels:
                    channel.lock.release()
            for slot, (channel, exc) in failed.items():
                if self._fallback is not None:
                    break
                self._rerun_failed_locked(slot, session, per_slot[slot], raw, channel, exc)
            if task_errors:
                # User code raised inside a live runtime: no recovery can
                # fix it, so it surfaces as is.
                raise task_errors[0]
            if self._fallback is not None:
                # Unrecoverable mid-batch: the fallback was rebuilt from the
                # journal, which excludes this batch, so its states are the
                # pre-batch states — re-running the whole batch there yields
                # the results the healthy runtimes would have produced.
                return self._fallback.run_nodes(session, node_ids, fn, args_list)
            self._commit_batch_locked(session, per_slot)
            return [wirecodec.loads(raw[slot][position]) for slot, position in order]
        finally:
            for slot in slots:
                self._slot_locks[slot].release()

    def deliver(self, payload: Payload) -> Payload:
        plan = self._active_plan()
        if plan is not None:
            return faulted_delivery(plan, payload, lambda p: decode_payload(p.to_bytes()))
        return decode_payload(payload.to_bytes())

    def release(self, session: str) -> None:
        if self._journal is not None:
            with self._journal_lock:
                self._journal.pop(session, None)
        try:
            for slot in range(self.max_workers if self._started else 0):
                if self._fallback is not None:
                    break
                try:
                    self._request(slot, ("release", session))
                except TransportFailure:
                    pass  # a lost runtime holds no state worth releasing
            if self._fallback is not None:
                self._fallback.release(session)
        finally:
            with self._fn_cache_lock:
                for cache_key in [k for k in self._fn_cache if k[0] == session]:
                    del self._fn_cache[cache_key]
            # Even with a runtime unreachable, the session's shm ownership
            # must drain — a crashed worker cannot keep a segment pinned.
            shm.store().release_owner(session)

    def close(self) -> None:
        self._closed = True
        if self._journal is not None:
            with self._journal_lock:
                self._journal.clear()
        if self._fallback is not None:
            self._fallback.close()
            self._fallback = None
        if self._started:
            self._close_channels()
            self._channels = []
            self._slot_locks = []
            self._started = False


# ---------------------------------------------------------------------- #
# The process pool: the journaled transport over pipes
# ---------------------------------------------------------------------- #


class _PipeChannel(Channel):
    """A spawned worker process serving :func:`~repro.fabric.runtime.serve_pipe`."""

    def __init__(self, context: Any, worker: int) -> None:
        # Imported lazily: the runtime module builds on this one.
        from .runtime import serve_pipe

        super().__init__(worker)
        self.conn, child = context.Pipe()
        self.process = context.Process(target=serve_pipe, args=(child,), daemon=True)
        self.process.start()
        child.close()

    def __str__(self) -> str:
        return f"worker {self.order}"

    def post(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (OSError, ValueError) as exc:
            raise self._lost(exc, "is unreachable (died?)") from exc

    def _reply(self) -> tuple:
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lost(exc, "died mid-request") from exc

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=5)

    def discard(self) -> None:
        # Workers only attach shared memory, so a SIGKILL leaks nothing.
        self.conn.close()
        self.kill()

    def close(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5)
        self.discard()


class ProcessPoolTransport(JournaledTransport):
    """Real multiprocess workers for coordinator sites and MPC machines.

    Nodes are pinned to workers (``node_id % max_workers``) so a node's state
    stays on one worker for the whole session; the state — including the
    node's private RNG, derived from the run's root seed via
    ``SeedSequence.spawn`` — is shipped once at init and then lives worker
    side.  Payload delivery round-trips the canonical wire bytes, so the
    receiver observes exactly what a remote peer would.

    Per-worker locks make the transport safe under the thread-pool batch
    layer: two threads' sessions interleave at message granularity but each
    session's task order (and therefore its RNG consumption) is fixed by its
    own thread, keeping batches deterministic.

    The bare pool keeps no journal and restarts nothing: a worker crash
    raises a retryable :class:`TransportFailure`.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int = 2,
        start_method: str = "spawn",
        shared_memory: bool = True,
    ) -> None:
        super().__init__(max_workers)
        self.start_method = start_method
        # Requested zero-copy shipping degrades silently to the pickle path
        # on platforms without working POSIX shared memory.
        self.shared_memory = bool(shared_memory) and shm.shared_memory_supported()
        self._context = mp.get_context(start_method)

    def _open_channels(self) -> list[Channel]:
        return [_PipeChannel(self._context, worker) for worker in range(self.max_workers)]

    def _respawn(self, slot: int) -> Channel:
        try:
            return _PipeChannel(self._context, slot)
        except OSError as exc:  # pragma: no cover - resource exhaustion
            raise TransportFailure(
                f"could not respawn worker {slot}: {exc!r}", retryable=True, worker=slot
            ) from exc

    def _make_fallback(self) -> Transport:
        return InProcessTransport()

    def _health_detail(self) -> dict:
        live = self._started and not self.degraded
        return {
            "workers": [
                {
                    "alive": live and self._channels[worker].process.is_alive(),
                    "restarts": self.restarts_per_slot[worker],
                }
                for worker in range(self.max_workers)
            ]
        }

    def worker_pids(self) -> list[int]:
        """The worker process ids (chaos tests SIGKILL one externally)."""
        self._ensure_started()
        return [channel.process.pid for channel in self._channels]

    def kill_worker(self, worker: int) -> None:
        """SIGKILL one worker process (deterministic fault injection)."""
        self._channels[worker].kill()


# ---------------------------------------------------------------------- #
# From a TransportConfig to a transport
# ---------------------------------------------------------------------- #


def _transport_spec(config: "TransportConfig") -> tuple[type, dict]:
    """The transport class ``config`` builds and its constructor arguments."""
    if config.kind == "process":
        kwargs: dict = dict(
            max_workers=config.max_workers,
            start_method=config.start_method,
            shared_memory=config.shared_memory,
        )
        if not config.supervised:
            return ProcessPoolTransport, kwargs
        # Imported lazily: the supervisor subclasses ProcessPoolTransport.
        from ..resilience.supervisor import SupervisedProcessPoolTransport

        kwargs["restart_policy"] = RetryPolicy(
            max_attempts=config.max_restarts, backoff_s=config.restart_backoff_s
        )
        return SupervisedProcessPoolTransport, kwargs
    if config.kind == "tcp":
        # Imported lazily: the cluster package builds on this module.
        from ..cluster.protocol import parse_address
        from ..cluster.transport import TcpTransport

        return TcpTransport, dict(
            max_workers=config.max_workers,
            listen=parse_address(config.listen),
            addresses=tuple(parse_address(a) for a in config.addresses),
            spawn_agents=config.spawn_agents,
            heartbeat_interval_s=config.heartbeat_interval_s,
            heartbeat_timeout_s=config.heartbeat_timeout_s,
            registration_timeout_s=config.registration_timeout_s,
            max_restarts=config.max_restarts,
        )
    raise CommunicationError(f"unknown transport kind {config.kind!r}")


def build_transport(config: "TransportConfig | None") -> Transport:
    """A new transport for ``config`` (``None`` means in-process)."""
    if config is None or config.kind == "inprocess":
        return InProcessTransport()
    cls, kwargs = _transport_spec(config)
    return cls(**kwargs)


_SHARED: dict[tuple, JournaledTransport] = {}
_SHARED_LOCK = threading.Lock()


def shared_transport(config: "TransportConfig") -> JournaledTransport:
    """The process-wide transport shared by every solve whose config builds it.

    Start-up (fresh interpreters under ``spawn``, agent registration) is paid
    once per distinct build — keyed by the class and *every* constructor
    argument, so two configs share only when they would behave the same —
    instead of once per solve; sessions namespace the node states, so
    sharing is invisible to callers.  A shared transport that was closed is
    replaced, never handed out again.  All are closed atexit.
    """
    cls, kwargs = _transport_spec(config)
    key = (cls, tuple(sorted(kwargs.items())))
    with _SHARED_LOCK:
        transport = _SHARED.get(key)
        if transport is None or transport._closed:
            transport = _SHARED[key] = cls(**kwargs)
    return transport


def shared_process_transport(
    max_workers: int = 2,
    start_method: str = "spawn",
    supervised: bool = False,
    shared_memory: bool = True,
) -> ProcessPoolTransport:
    """The shared process pool for these knobs (the others at their
    :class:`~repro.api.config.TransportConfig` defaults)."""
    from ..api.config import TransportConfig

    return shared_transport(
        TransportConfig(
            kind="process",
            max_workers=max_workers,
            start_method=start_method,
            supervised=supervised,
            shared_memory=shared_memory,
        )
    )


@atexit.register
def _close_shared_transports() -> None:  # pragma: no cover - interpreter shutdown
    with _SHARED_LOCK:
        for transport in _SHARED.values():
            transport.close()
        _SHARED.clear()


_PINNED_TRANSPORT: ContextVar[Optional[Transport]] = ContextVar(
    "repro_pinned_transport", default=None
)


@contextmanager
def pinned_transport(transport: Optional[Transport]) -> Iterator[None]:
    """Pin one transport for every :func:`resolve_transport` call in scope.

    The session API uses this to hand its long-lived worker pool to the
    drivers without widening their signatures: while the pin is active, any
    driver asking for a transport of the pinned *kind* receives the pinned
    instance instead of resolving a fresh (or shared) one.  The pinned
    transport is never marked ``private``, so topologies release their node
    states on ``close()`` but leave the workers running — the owner (the
    session) tears the pool down when it exits.

    ``None`` pins nothing (callers can pass their maybe-transport through
    unconditionally).
    """
    if transport is None:
        yield
        return
    token = _PINNED_TRANSPORT.set(transport)
    try:
        yield
    finally:
        _PINNED_TRANSPORT.reset(token)


def resolve_transport(config: "TransportConfig | None") -> Transport:
    """The transport instance for one solve, from its (optional) config.

    A transport pinned via :func:`pinned_transport` wins whenever its kind
    matches the requested one (sessions reuse one pool across solves).
    Otherwise ``None`` and ``kind="inprocess"`` return a fresh
    :class:`InProcessTransport` (per-solve state isolation is free); the
    remote kinds return the :func:`shared_transport` by default, or a
    dedicated one when ``config.reuse_pool`` is false or explicit agent
    ``addresses`` are given (external agents are the caller's own).  A
    dedicated transport is marked ``private`` so its owner — the topology,
    or a session that claims it — tears it down when the run ends.
    """
    pinned = _PINNED_TRANSPORT.get()
    if pinned is not None and pinned.name == ("inprocess" if config is None else config.kind):
        return pinned
    if config is None or config.kind == "inprocess":
        return InProcessTransport()
    if config.reuse_pool and not config.addresses:
        return shared_transport(config)
    transport = build_transport(config)
    transport.private = True
    return transport
