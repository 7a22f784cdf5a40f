"""MPC binding of the Clarkson engine (Theorem 3), on the fabric.

The constraint set is partitioned over ``k`` machines with roughly ``n^delta``
constraints each; machine 0 plays the role of the coordinator.  Because the
coordinator machine cannot receive a message from every other machine in a
single round without blowing up its load, the coordinator-model protocol is
simulated with the standard tree primitives of Goodrich et al. [23]:

* the per-iteration basis (a measured
  :class:`~repro.fabric.payload.BasisPayload`) and the success flag are
  **broadcast** through an ``n^delta``-ary tree in ``O(1/delta)`` rounds;
* the total constraint weight is computed by an **aggregation** tree in
  ``O(1/delta)`` rounds;
* every machine then samples its share of the eps-net locally (its weights
  are implicit in the broadcast bases it stores, evaluated in one vectorised
  ``violation_count_matrix`` sweep per machine, cached per basis version)
  and ships the sample — a measured
  :class:`~repro.fabric.payload.ConstraintBlock` — directly to the
  coordinator; the sample fits in the coordinator's ``O~(n^delta)`` load by
  the choice of the eps-net size.

All communication flows through a
:class:`~repro.fabric.topology.GridTopology`; machine state (local indices,
the stored bases, the per-machine RNG derived from the run seed) lives with
the configured :class:`~repro.fabric.transport.Transport` — in-process by
default, real worker processes with ``TransportConfig(kind="process")`` —
with bit-identical results either way.  On the in-process simulator the
machine tasks run in their batched forms (``fn.batched``): one kernel pass
over all machines' rows per step instead of one per machine, with each
machine's RNG draws unchanged.

With ``r = ceil(1/delta)`` iterations of Algorithm 1 behaving as in the
coordinator model, the total round count is ``O(nu / delta^2)`` and the
per-machine load is ``O~(lambda * nu^2 * n^delta)`` bits, matching Theorem 3.

The iteration loop itself lives in :class:`repro.core.engine.ClarksonEngine`;
the aggregation/sampling trees run inside the sampling strategy, the
basis-broadcast and statistics trees inside the weight substrate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .. import kernels
from ..core.accounting import BitCostModel
from ..core.clarkson import _warm_stats, resolve_sampling, solve_small_problem
from ..core.engine import (
    ClarksonEngine,
    EngineConfig,
    SamplingStrategy,
    ViolationOracle,
    ViolationStats,
    WeightSubstrate,
    iteration_budget,
)
from ..core.exceptions import IterationLimitError
from ..core.lptype import BasisResult, LPTypeProblem
from ..core.result import ResourceUsage, SolveResult
from ..core.rng import as_generator, spawn
from ..core.sampling import gumbel_top_k
from ..core.weights import boost_factor
from ..fabric.payload import (
    BasisPayload,
    ConstraintBlock,
    Flag,
    Scalar,
    StatsBlock,
    constraint_rows,
    encode_witness_vector,
)
from ..fabric.topology import GridTopology
from ..fabric.transport import SharedRef, resolve_transport
from ..models.partition import partition_indices
from ..api.config import MPCConfig
from ..api.registry import register_model

__all__ = ["machines_for_load"]

_COORDINATOR = 0


def machines_for_load(num_constraints: int, delta: float) -> int:
    """Number of machines ``~ n^(1 - delta)`` needed for load ``~ n^delta``."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if num_constraints < 1:
        raise ValueError("num_constraints must be >= 1")
    return max(1, int(math.ceil(num_constraints ** (1.0 - delta))))


# ---------------------------------------------------------------------- #
# Machine tasks: top-level functions so the process transport can ship them.
# Each takes the machine state dict, returns ``(state, result)``.
# ---------------------------------------------------------------------- #


def _machine_weights(state: dict) -> tuple[np.ndarray, np.ndarray]:
    """Implicit weights of this machine's constraints, cached per version.

    The weight of constraint ``i`` is ``boost ** a_i`` where ``a_i`` counts
    the stored bases it violates; values are kept relative to
    ``boost ** num_bases`` to stay finite.  Recomputed only when a new basis
    arrived since the last call.
    """
    version = len(state["witnesses"])
    if state.get("weights_version") != version:
        with kernels.use_backend(state.get("kernel")):
            exponents = state["problem"].violation_count_matrix(
                state["witnesses"], state["local_indices"]
            )
        state["weights"], state["log_weights"] = _implicit_weights(
            exponents, version, state["boost"]
        )
        state["weights_version"] = version
    return state["weights"], state["log_weights"]


def _implicit_weights(
    exponents: np.ndarray, version: int, boost: float
) -> tuple[np.ndarray, np.ndarray]:
    """``boost ** (exponents - version)`` and its natural log."""
    relative = (exponents - version).astype(float)
    return boost ** relative, relative * float(np.log(boost))


def _machine_weight_total(state: dict) -> tuple[dict, float]:
    """Aggregation-tree leaf value: this machine's total implicit weight."""
    if state["local_indices"].size == 0:
        return state, 0.0
    weights, _ = _machine_weights(state)
    return state, float(weights.sum())


def _machine_sample(
    state: dict, sample_size: int, total_weight: float
) -> tuple[dict, Optional[ConstraintBlock]]:
    """Draw this machine's binomial share of the eps-net (Gumbel top-k)."""
    if state["local_indices"].size == 0:
        return state, None
    weights, log_weights = _machine_weights(state)
    share = float(weights.sum()) / total_weight
    draws = int(state["rng"].binomial(sample_size, min(1.0, share)))
    draws = min(draws, int(state["local_indices"].size))
    if draws == 0:
        return state, None
    with kernels.use_backend(state.get("kernel")):
        chosen_positions = gumbel_top_k(log_weights, draws, rng=state["rng"])
    chosen = state["local_indices"][chosen_positions]
    return state, ConstraintBlock(
        indices=chosen, rows=constraint_rows(state["problem"], chosen)
    )


def _machine_stats(state: dict, witness) -> tuple[dict, tuple[float, int]]:
    """Violator weight and count of this machine against one witness.

    One fused kernel sweep per machine: mask, count, and violated-weight sum
    come out of a single blocked pass over the machine's local constraints.
    """
    if state["local_indices"].size == 0:
        return state, (0.0, 0)
    weights, _ = _machine_weights(state)
    with kernels.use_backend(state.get("kernel")):
        stats = state["problem"].violation_sweep(
            witness, state["local_indices"], weights=weights, need_total=False
        )
    return state, (float(stats.violated_weight), int(stats.count))


def _machine_store_witness(state: dict, witness) -> tuple[dict, None]:
    """A successful iteration's basis arrived: extend the implicit weights."""
    state["witnesses"].append(witness)
    return state, None


# ---------------------------------------------------------------------- #
# Batched forms of the machine tasks (``fn.batched``, in-process transport).
# Each takes every listed machine state at once, updates them in place, and
# returns the per-machine results of the task above, bit for bit.
# ---------------------------------------------------------------------- #


def _segments(states: list[dict]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The listed machines' local constraints laid end to end.

    Returns the concatenated ``local_indices`` and each machine's
    ``(start, stop)`` within them.  One kernel pass over the whole
    constraint pack serves every machine: its per-row results, gathered at
    the concatenated indices, give each machine its own segment (per-row
    values do not depend on which rows a pass covers).
    """
    parts = [state["local_indices"] for state in states]
    bounds = list(itertools.accumulate((part.size for part in parts), initial=0))
    return np.concatenate(parts), list(zip(bounds[:-1], bounds[1:]))


def _refresh_weights(states: list[dict]) -> None:
    """Bring every listed machine's implicit weights up to date.

    When all stale machines hold the same stored bases (every machine
    receives each broadcast basis), their exponents come from one
    ``violation_count_matrix`` over all rows and each machine gets views of
    its segment; otherwise each stale machine refreshes on its own.
    """
    live = [state for state in states if state["local_indices"].size]
    stale = [
        state for state in live if state.get("weights_version") != len(state["witnesses"])
    ]
    if not stale:
        return
    first = stale[0]
    witnesses = first["witnesses"]
    shared = len(stale) == len(live) and all(
        state["boost"] == first["boost"]
        and state.get("kernel") == first.get("kernel")
        and len(state["witnesses"]) == len(witnesses)
        and all(a is b for a, b in zip(state["witnesses"], witnesses))
        for state in stale
    )
    if not shared:
        for state in stale:
            _machine_weights(state)
        return
    version = len(witnesses)
    indices, segments = _segments(live)
    with kernels.use_backend(first.get("kernel")):
        exponents = first["problem"].violation_count_matrix(witnesses, None)[indices]
    weights, log_weights = _implicit_weights(exponents, version, first["boost"])
    for state, (start, stop) in zip(live, segments):
        state["weights"] = weights[start:stop]
        state["log_weights"] = log_weights[start:stop]
        state["weights_version"] = version


def _machines_weight_total(states: list[dict], args_list: list[tuple]) -> list[float]:
    _refresh_weights(states)
    return [
        float(state["weights"].sum()) if state["local_indices"].size else 0.0
        for state in states
    ]


def _machines_sample(
    states: list[dict], args_list: list[tuple]
) -> list[Optional[ConstraintBlock]]:
    # The draws stay per machine: each consumes its own RNG stream.
    _refresh_weights(states)
    return [_machine_sample(state, *args)[1] for state, args in zip(states, args_list)]


def _machines_stats(
    states: list[dict], args_list: list[tuple]
) -> list[tuple[float, int]]:
    (witness,) = args_list[0]
    if any(args[0] is not witness for args in args_list):
        return [_machine_stats(state, *args)[1] for state, args in zip(states, args_list)]
    _refresh_weights(states)
    problem = states[0]["problem"]
    indices, segments = _segments(states)
    with kernels.use_backend(states[0].get("kernel")):
        mask = problem.violation_sweep(witness, None, need_total=False).mask[indices]
        # Sum each machine's violated weights the way its own sweep would:
        # the active backend's way, or the scalar fallback's way when the
        # problem has no packed plane for this witness.
        packed = (
            problem.constraint_pack() is not None
            and problem.encode_witness(witness) is not None
        )
        backend = kernels.active_backend() if packed else kernels.get_backend("numpy")
    results = []
    for state, (start, stop) in zip(states, segments):
        segment = mask[start:stop]
        count = int(np.count_nonzero(segment))
        violated = backend.masked_sum(state["weights"], segment) if count else 0.0
        results.append((float(violated), count))
    return results


# ``_machine_store_witness`` has no batched form: it does no kernel work, so
# the transport's per-node loop (one list append per machine) is already it.
_machine_weight_total.batched = _machines_weight_total
_machine_sample.batched = _machines_sample
_machine_stats.batched = _machines_stats


class _MPCState:
    """Coordinator-side run state shared between the MPC sampler and substrate."""

    def __init__(
        self,
        problem: LPTypeProblem,
        topology: GridTopology,
        oracle: ViolationOracle,
        boost: float,
        fanout: int,
        gen: np.random.Generator,
        warm_witnesses: Sequence | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        self.problem = problem
        self.topology = topology
        self.oracle = oracle
        self.boost = boost
        self.fanout = fanout
        self.gen = gen
        self.kernel_backend = kernel_backend
        self.machine_sizes: list[int] = []
        self.total_weight = 0.0
        # Warm re-solves (session API) seed every machine's stored bases
        # with the prior run's successful-iteration witnesses; the prior run
        # broadcast them machine-wide already, so the carry costs no rounds.
        self.warm_witnesses = list(warm_witnesses) if warm_witnesses else []
        self.num_bases = len(self.warm_witnesses)
        self._counted_version = -1

    def install_machines(self, partition: Sequence[np.ndarray]) -> None:
        machine_rngs = spawn(self.gen, self.topology.num_machines)
        # One shipped copy of the problem per transport worker, not per machine.
        self.topology.share("problem", self.problem)
        for machine_id, local in enumerate(partition):
            local = np.asarray(local, dtype=int)
            self.machine_sizes.append(int(local.size))
            self.topology.init_state(
                machine_id,
                {
                    "problem": SharedRef("problem"),
                    "local_indices": local,
                    "rng": machine_rngs[machine_id],
                    "witnesses": list(self.warm_witnesses),
                    "boost": self.boost,
                    "weights_version": -1,
                    "kernel": self.kernel_backend,
                },
            )

    def note_weight_sweep(self) -> None:
        """Count the per-machine implicit-weight sweeps, once per version."""
        if self._counted_version != self.num_bases:
            self.oracle.record_external(
                sum(1 for size in self.machine_sizes if size),
                sum(self.machine_sizes),
            )
            self._counted_version = self.num_bases


class TreeRoundSampling(SamplingStrategy):
    """Weight aggregation tree plus the direct-to-coordinator sampling round."""

    def __init__(self, state: _MPCState) -> None:
        self.state = state

    def draw(self, sample_size: int) -> np.ndarray:
        state = self.state
        topology = state.topology
        k = topology.num_machines

        # -------- total weight via an aggregation tree -------- #
        state.note_weight_sweep()
        machine_totals = topology.run_all(_machine_weight_total, [()] * k)
        _, total_weight = topology.aggregate_tree(
            _COORDINATOR,
            Scalar(0.0),
            state.fanout,
            values=machine_totals,
            combine=lambda a, b: (a or 0.0) + (b or 0.0),
        )
        total_weight = float(total_weight)
        if total_weight <= 0:
            raise IterationLimitError("all machine weights vanished; invalid state")
        state.total_weight = total_weight

        # -------- local sampling, shipped to the coordinator -------- #
        topology.begin_round()
        blocks = topology.run_all(
            _machine_sample, [(sample_size, total_weight)] * k
        )
        sampled = []
        for machine_id, block in enumerate(blocks):
            if block is None:
                continue
            if machine_id != _COORDINATOR:
                block = topology.send(machine_id, _COORDINATOR, block)
            sampled.append(np.asarray(block.indices, dtype=int))
        topology.end_round()
        if not sampled:
            return np.empty(0, dtype=int)
        return np.unique(np.concatenate(sampled))


class TreeImplicitSubstrate(WeightSubstrate):
    """Basis broadcast plus violation-statistics aggregation, both via trees."""

    def __init__(self, state: _MPCState) -> None:
        self.state = state

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        state = self.state
        topology = state.topology
        k = topology.num_machines
        problem = state.problem

        # -------- broadcast the basis through the tree -------- #
        basis_idx = np.asarray(basis.indices, dtype=int)
        payload = BasisPayload(
            indices=basis_idx,
            rows=constraint_rows(problem, basis_idx),
            witness=encode_witness_vector(problem, basis.witness),
        )
        topology.broadcast_tree(_COORDINATOR, payload, state.fanout)

        # -------- violation statistics via an aggregation tree -------- #
        per_machine_stats = topology.run_all(_machine_stats, [(basis.witness,)] * k)
        state.oracle.record_external(
            sum(1 for size in state.machine_sizes if size), sum(state.machine_sizes)
        )
        _, aggregate = topology.aggregate_tree(
            _COORDINATOR,
            StatsBlock(np.zeros(2)),
            state.fanout,
            values=per_machine_stats,
            combine=lambda a, b: (
                (a or (0.0, 0))[0] + (b or (0.0, 0))[0],
                (a or (0.0, 0))[1] + (b or (0.0, 0))[1],
            ),
        )
        violator_weight, violator_count = aggregate
        fraction = (
            violator_weight / state.total_weight if state.total_weight > 0 else 0.0
        )
        return ViolationStats(
            num_violators=int(violator_count),
            weight_fraction=float(fraction),
            context=basis.witness,
        )

    def boost(self, stats: ViolationStats) -> None:
        state = self.state
        topology = state.topology
        # The success flag rides along with the next basis broadcast; a
        # dedicated one-counter broadcast keeps the accounting explicit.  The
        # machines extend their stored bases with the witness they received.
        topology.run_all(
            _machine_store_witness, [(stats.context,)] * topology.num_machines
        )
        state.num_bases += 1
        topology.broadcast_tree(_COORDINATOR, Flag("success", 1), state.fanout)


def _mpc_clarkson_solve(
    problem: LPTypeProblem,
    config: MPCConfig,
    warm_witnesses: list | None = None,
) -> SolveResult:
    """MPC driver: the ``"mpc"`` runner.

    Per-machine load is ``O~(n^delta)`` and the number of rounds
    ``O(nu / delta^2)``; ``r = ceil(1/delta)`` is derived from
    ``config.delta`` (the config's own ``r`` is ignored).
    ``resources.rounds`` and ``resources.max_machine_load_bits`` carry the
    MPC costs; ``result.communication`` has the per-round trace.
    ``warm_witnesses`` (session API) seeds every machine's implicit
    stored-bases weights with a prior run's successful-iteration witnesses.
    """
    delta = config.delta
    config = replace(config, r=max(1, int(math.ceil(1.0 / delta))))
    gen = as_generator(config.seed)
    n = problem.num_constraints
    cost_model = config.cost_model or BitCostModel()

    k = config.num_machines or machines_for_load(n, delta)
    partition = config.partition
    if partition is None:
        partition = partition_indices(n, k, method="round_robin")
    transport = resolve_transport(config.transport)
    topology = GridTopology(len(partition), transport=transport, cost_model=cost_model)
    fanout = max(2, int(math.ceil(n ** delta)))

    sample_size, epsilon = resolve_sampling(problem, config)
    boost = config.boost if config.boost is not None else boost_factor(n, config.r)
    backend = kernels.resolve_backend_name(config.kernel_backend)

    state = _MPCState(
        problem=problem,
        topology=topology,
        oracle=ViolationOracle(problem),
        boost=boost,
        fanout=fanout,
        gen=gen,
        warm_witnesses=warm_witnesses,
        kernel_backend=backend,
    )
    try:
        state.install_machines(partition)

        if sample_size >= n or topology.num_machines == 1:
            # Everything fits on the coordinator: aggregate the constraints once.
            if topology.num_machines > 1:
                largest = max(
                    (m for m in partition), key=lambda m: np.asarray(m).size
                )
                largest = np.asarray(largest, dtype=int)
                topology.aggregate_tree(
                    _COORDINATOR,
                    ConstraintBlock(
                        indices=largest, rows=constraint_rows(problem, largest)
                    ),
                    fanout,
                )
            with kernels.use_backend(backend):
                result = solve_small_problem(problem)
            result.resources.rounds = topology.rounds
            result.resources.max_machine_load_bits = topology.max_load_bits
            result.resources.total_communication_bits = topology.total_bits
            result.resources.max_message_bits = topology.max_message_bits
            result.resources.machine_count = topology.num_machines
            result.resources.per_round = topology.ledger.as_table()
            result.metadata.update(
                {
                    "algorithm": "mpc_clarkson",
                    "delta": delta,
                    "k": topology.num_machines,
                    "transport": topology.transport.name,
                    "kernel_backend": backend,
                }
            )
            result.warm = _warm_stats(warm_witnesses, [])
            return result

        engine = ClarksonEngine(
            problem=problem,
            sampler=TreeRoundSampling(state),
            substrate=TreeImplicitSubstrate(state),
            config=EngineConfig(
                sample_size=sample_size,
                epsilon=epsilon,
                budget=iteration_budget(problem, config.r, config.max_iterations),
                keep_trace=config.keep_trace,
                name="MPC Clarkson",
                basis_cache=config.basis_cache,
            ),
        )
        with kernels.use_backend(backend):
            outcome = engine.run()
    finally:
        topology.close()

    resources = ResourceUsage(
        rounds=topology.rounds,
        max_machine_load_bits=topology.max_load_bits,
        total_communication_bits=topology.total_bits,
        max_message_bits=topology.max_message_bits,
        machine_count=topology.num_machines,
        oracle_calls=state.oracle.calls,
        basis_cache_hits=outcome.cache_hits,
        basis_cache_misses=outcome.cache_misses,
        per_round=topology.ledger.as_table(),
    )
    return SolveResult(
        value=outcome.basis.value,
        witness=outcome.basis.witness,
        basis_indices=outcome.basis.indices,
        iterations=outcome.iterations,
        successful_iterations=outcome.successful_iterations,
        resources=resources,
        trace=outcome.trace,
        metadata={
            "algorithm": "mpc_clarkson",
            "delta": delta,
            "r": config.r,
            "k": topology.num_machines,
            "epsilon": epsilon,
            "sample_size": sample_size,
            "boost": boost,
            "fanout": fanout,
            "transport": topology.transport.name,
            "kernel_backend": backend,
        },
        warm=_warm_stats(warm_witnesses, outcome.successful_witnesses),
    )


register_model(
    "mpc",
    _mpc_clarkson_solve,
    config_cls=MPCConfig,
    description=(
        "MPC Clarkson (Theorem 3): implicit weights with tree "
        "broadcast/aggregation, O(nu/delta^2) rounds, O~(n^delta) load per "
        "machine."
    ),
    currencies=(
        "rounds",
        "max_machine_load_bits",
        "total_communication_bits",
        "machine_count",
    ),
    transports=("inprocess", "process", "tcp"),
    capabilities=("warm_restart", "ingest"),
)
