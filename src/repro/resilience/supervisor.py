"""A supervised process-pool transport: crash detection, restart, replay.

:class:`SupervisedProcessPoolTransport` is the
:class:`~repro.fabric.transport.ProcessPoolTransport` with the recovery of
:class:`~repro.fabric.transport.JournaledTransport` switched on — the fault
tolerance the service path needs:

* **Liveness**: :meth:`ping` per worker and a structured :meth:`health`
  summary (surfaced by ``/v1/healthz``).
* **Bounded restart**: a crashed worker is respawned under an exponential
  backoff + jitter :class:`~repro.resilience.retry.RetryPolicy` (jitter from
  a seeded RNG, so chaos runs stay reproducible); ``max_attempts`` is the
  budget *per failure*.
* **State re-establishment**: the respawned worker replays its share of the
  journal — shares (with shared memory: pickled
  :class:`~repro.fabric.shm.ShippedObject` handles, so replay re-maps the
  original pages), node inits carrying each node's RNG, and every completed
  task batch — so re-running the in-flight batch is bit-identical.
* **Graceful degradation**: with the budget exhausted the pool degrades to
  an :class:`~repro.fabric.transport.InProcessTransport` rebuilt from *all*
  journals and the solve continues in-process, still bit-identical.  With
  ``degrade=False`` it raises a terminal (``retryable=False``) failure
  instead, which the server treats as a poisoned session.

The transport keeps ``name = "process"`` on purpose: pinning, driver
metadata, and the cross-transport bit-identity contract are unchanged.
"""

from __future__ import annotations

from random import Random
from typing import Optional, Sequence

from ..fabric.transport import Channel, ProcessPoolTransport
from .retry import RetryPolicy

__all__ = ["SupervisedProcessPoolTransport"]


class SupervisedProcessPoolTransport(ProcessPoolTransport):
    """A :class:`ProcessPoolTransport` that survives worker crashes."""

    name = "process"  # deliberately identical: same pinning, same metadata

    def __init__(
        self,
        max_workers: int = 2,
        start_method: str = "spawn",
        shared_memory: bool = True,
        *,
        restart_policy: Optional[RetryPolicy] = None,
        degrade: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(
            max_workers=max_workers,
            start_method=start_method,
            shared_memory=shared_memory,
        )
        # The default policy is the one TransportConfig's defaults build.
        self.restart_policy = restart_policy or RetryPolicy()
        self.degrade_enabled = bool(degrade)
        self._rng = Random(seed)
        self._journal = {}

    def _replay_locked(self, channel: Channel, slots: Sequence[int], include_shares: bool) -> None:
        # Defined on this class itself so benchmark tracing, which hooks
        # this class's own replay step, can count worker replays.
        super()._replay_locked(channel, slots, include_shares)
