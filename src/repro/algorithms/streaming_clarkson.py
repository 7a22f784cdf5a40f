"""Multi-pass streaming binding of the Clarkson engine (Theorem 1), on the fabric.

The streaming driver cannot store per-constraint weights.  Following
Section 3.2 of the paper, it instead stores the bases of all *successful*
iterations; the weight of a constraint during pass ``t`` is
``boost ** a_i`` where ``a_i`` is the number of stored bases the constraint
violates.  With those implicit weights, each iteration of Algorithm 1 is
implemented with

* one **sampling pass** that draws a weighted reservoir sample of size ``m``
  (the eps-net size) from the stream, and
* one **verification pass** that, given the basis computed from the sample,
  measures the weight fraction of the violating constraints (the success
  test of Algorithm 1) and detects termination.

The stream reader is a fabric node on a
:class:`~repro.fabric.topology.StreamTopology`: each pass executes as one
node task (the reader's RNG, stored bases, and arrival order live in its
node state), so under ``TransportConfig(kind="process")`` every pass runs in
a real worker process — bit-identical to the in-process default, because the
task code and the shipped RNG state are the same.  One ledger round is
recorded per pass, which is what ``SolveResult.communication`` surfaces.

Both passes consume the stream in bounded chunks: each chunk's implicit
weights are evaluated against all stored bases in one vectorised
``violation_count_matrix`` call, and the sampling pass turns each chunk into
batch exponential keys, keeping a running top-``m`` — statistically
identical to offering the items to the reservoir one at a time.  The
simulator's live scratch is therefore ``O(chunk + m + nu * r)``, mirroring
the block buffering a real streaming system would use; the *reported*
footprint counts the modelled algorithm's reservoir, stored bases, and
in-flight item, which is the Theorem 1 quantity.

This costs two passes per iteration — a factor-2 over the idealised
one-pass-per-iteration accounting in the paper, recorded as such in
EXPERIMENTS.md — for a total of ``O(nu * r)`` passes.  The peak memory is the
reservoir plus the stored bases: ``O~(lambda * nu * n^{1/r} + nu^2 * r)``
constraints, matching Theorem 1.

The iteration loop itself (sample -> solve -> success test -> reweight ->
terminate) lives in :class:`repro.core.engine.ClarksonEngine`; this module
only provides the streaming substrate binding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import kernels
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
from ..core.lptype import BasisResult, LPTypeProblem
from ..core.result import ResourceUsage, SolveResult
from ..core.rng import as_generator
from ..core.sampling import exponential_keys
from ..core.weights import boost_factor
from ..fabric.topology import StreamTopology
from ..fabric.transport import SharedRef, resolve_transport
from ..models.streaming import StreamingMemory
from ..api.config import StreamingConfig
from ..api.registry import register_model

#: Number of stream items buffered per vectorised evaluation.  Bounded and
#: independent of ``n``: the simulator's live scratch per pass is
#: ``O(_CHUNK_ITEMS + m + nu * r)`` regardless of the stream length.
_CHUNK_ITEMS = 8192


# ---------------------------------------------------------------------- #
# Reader tasks: top-level functions so the process transport can ship them.
# The single stream-reader node holds the order, the RNG, and the stored
# bases; one task call is one full pass.
# ---------------------------------------------------------------------- #


def _chunk_weights(state: dict, chunk: np.ndarray) -> np.ndarray:
    """Relative implicit weights of one chunk, in one vectorised sweep."""
    exponents = state["problem"].violation_count_matrix(state["witnesses"], chunk)
    return state["boost"] ** (exponents - len(state["witnesses"])).astype(float)


def _reader_sampling_pass(state: dict, sample_size: int) -> tuple[dict, np.ndarray]:
    """One sampling pass: a weighted reservoir over on-the-fly implicit weights.

    Each chunk's exponential keys are drawn in a batch (one uniform per
    item, in stream order — exactly the uniforms the one-at-a-time
    reservoir would consume) and a running top-``m`` is kept, so the drawn
    sample has precisely the Efraimidis-Spirakis distribution while the
    live scratch stays ``O(chunk + m)``.
    """
    best_keys = np.empty(0, dtype=float)
    best_items = np.empty(0, dtype=int)
    with kernels.use_backend(state.get("kernel")):
        for chunk in StreamTopology.iter_chunks(state["order"], _CHUNK_ITEMS):
            weights = _chunk_weights(state, chunk)
            keys = exponential_keys(weights, rng=state["rng"])
            cand_keys = np.concatenate([best_keys, keys])
            cand_items = np.concatenate([best_items, chunk])
            if cand_keys.size > sample_size:
                top = np.argpartition(cand_keys, cand_keys.size - sample_size)
                top = top[cand_keys.size - sample_size:]
                best_keys, best_items = cand_keys[top], cand_items[top]
            else:
                best_keys, best_items = cand_keys, cand_items
    return state, np.sort(best_items)


def _reader_verification_pass(
    state: dict, witness
) -> tuple[dict, tuple[float, float, int]]:
    """One verification pass: violator weight / total weight / violator count.

    Each chunk is one fused kernel sweep (mask, violator count, violated and
    total weight in a single blocked pass); the reader node's state carries
    the kernel backend name so a process-transport worker executes on the
    same backend the coordinator resolved.
    """
    violator_count = 0
    violator_weight = 0.0
    total_weight = 0.0
    with kernels.use_backend(state.get("kernel")):
        for chunk in StreamTopology.iter_chunks(state["order"], _CHUNK_ITEMS):
            weights = _chunk_weights(state, chunk)
            stats = state["problem"].violation_sweep(
                witness, chunk, weights=weights, need_total=True
            )
            total_weight += float(stats.total_weight)
            violator_weight += float(stats.violated_weight)
            violator_count += int(stats.count)
    return state, (violator_weight, total_weight, violator_count)


def _reader_store_basis(state: dict, witness) -> tuple[dict, None]:
    """A successful iteration: remember its basis witness (implicit weights)."""
    state["witnesses"].append(witness)
    return state, None


class _StreamingState:
    """Coordinator-side state shared between the streaming sampler and substrate."""

    def __init__(
        self,
        problem: LPTypeProblem,
        topology: StreamTopology,
        memory: StreamingMemory,
        oracle: ViolationOracle,
        boost: float,
        rng: np.random.Generator,
        warm_witnesses: Sequence | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        self.problem = problem
        self.topology = topology
        self.memory = memory
        self.oracle = oracle
        self.nu = problem.combinatorial_dimension
        self.bit_size = problem.bit_size()
        # Warm re-solves (session API) seed the reader's stored bases with a
        # prior run's successful-iteration witnesses: the implicit weights
        # resume exactly where the prior run left them, and the carried
        # bases count toward the modelled footprint like freshly stored ones.
        warm = list(warm_witnesses) if warm_witnesses else []
        self.num_bases = len(warm)
        self.chunks_per_pass = max(
            1, -(-topology.num_items // _CHUNK_ITEMS)
        )
        topology.share("problem", problem)
        topology.init_state(
            0,
            {
                "problem": SharedRef("problem"),
                "order": topology.order(),
                "rng": rng,
                "witnesses": warm,
                "boost": boost,
                "kernel": kernel_backend,
            },
        )

    def record_footprint(self, stored_items: int) -> None:
        items = stored_items + self.num_bases * self.nu + 1
        self.memory.set_usage(items=items, bits=items * self.bit_size)


class ReservoirPassSampling(SamplingStrategy):
    """The sampling pass, executed as one reader-node task."""

    def __init__(self, state: _StreamingState) -> None:
        self.state = state

    def draw(self, sample_size: int) -> np.ndarray:
        state = self.state
        items = state.topology.run_pass(_reader_sampling_pass, sample_size)
        state.oracle.record_external(state.chunks_per_pass, state.topology.num_items)
        # Peak footprint of the sampling pass: the reservoir, the stored
        # bases, and the single in-flight stream item.
        state.record_footprint(int(items.size))
        return items


class ImplicitStreamSubstrate(WeightSubstrate):
    """Implicit stored-bases weights with a verification pass per iteration.

    The verification pass recomputes the implicit weights on the fly (as a
    real streaming algorithm must) and accumulates the violator / total
    weight chunk by chunk.
    """

    def __init__(self, state: _StreamingState) -> None:
        self.state = state

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        state = self.state
        violator_weight, total_weight, violator_count = state.topology.run_pass(
            _reader_verification_pass, basis.witness
        )
        state.oracle.record_external(
            2 * state.chunks_per_pass, 2 * state.topology.num_items
        )
        state.record_footprint(int(len(sample)))
        fraction = violator_weight / total_weight if total_weight > 0 else 0.0
        return ViolationStats(
            num_violators=violator_count, weight_fraction=fraction, context=basis
        )

    def boost(self, stats: ViolationStats) -> None:
        basis: BasisResult = stats.context
        self.state.topology.run_on(0, _reader_store_basis, basis.witness)
        self.state.num_bases += 1


def _streaming_clarkson_solve(
    problem: LPTypeProblem,
    config: StreamingConfig,
    warm_witnesses: list | None = None,
) -> SolveResult:
    """Multi-pass streaming driver: the ``"streaming"`` runner.

    The driver only accesses constraints by the indices the stream yields
    (in ``config.order``); ``resources.passes`` and
    ``resources.space_peak_items`` / ``space_peak_bits`` carry the streaming
    costs of the run.  ``warm_witnesses`` (session API) seeds the implicit
    stored-bases weights with a prior run's successful-iteration witnesses.
    """
    gen = as_generator(config.seed)
    n = problem.num_constraints
    topology = StreamTopology(
        n, order=config.order, transport=resolve_transport(config.transport)
    )
    memory = StreamingMemory()
    bit_size = problem.bit_size()

    backend = kernels.resolve_backend_name(config.kernel_backend)
    with kernels.use_backend(backend):
        # Every path, the whole-stream one included, runs inside the
        # try/finally that guarantees topology.close(): a run-private
        # process pool must not outlive the run, whichever way it ends.
        try:
            sample_size, epsilon = resolve_sampling(problem, config)
            if sample_size >= n:
                # The sample would contain the whole stream: one pass, full storage.
                topology.record_pass()
                result = solve_small_problem(problem)
                result.resources.passes = topology.passes
                result.resources.space_peak_items = n
                result.resources.space_peak_bits = n * bit_size
                result.resources.per_round = topology.ledger.as_table()
                result.metadata.update(
                    {
                        "algorithm": "streaming_clarkson",
                        "r": config.r,
                        "kernel_backend": backend,
                    }
                )
                result.warm = _warm_stats(warm_witnesses, [])
                return result

            boost = config.boost if config.boost is not None else boost_factor(n, config.r)
            state = _StreamingState(
                problem=problem,
                topology=topology,
                memory=memory,
                oracle=ViolationOracle(problem),
                boost=boost,
                rng=gen,
                warm_witnesses=warm_witnesses,
                kernel_backend=backend,
            )
            engine = ClarksonEngine(
                problem=problem,
                sampler=ReservoirPassSampling(state),
                substrate=ImplicitStreamSubstrate(state),
                config=EngineConfig(
                    sample_size=sample_size,
                    epsilon=epsilon,
                    budget=iteration_budget(problem, config.r, config.max_iterations),
                    keep_trace=config.keep_trace,
                    name="streaming Clarkson",
                    basis_cache=config.basis_cache,
                ),
            )
            outcome = engine.run()
        finally:
            topology.close()

    resources = ResourceUsage(
        passes=topology.passes,
        space_peak_items=memory.peak_items,
        space_peak_bits=memory.peak_bits,
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
            "algorithm": "streaming_clarkson",
            "r": config.r,
            "epsilon": epsilon,
            "sample_size": sample_size,
            "boost": boost,
            "stored_bases": state.num_bases,
            "transport": topology.transport.name,
            "kernel_backend": backend,
        },
        warm=_warm_stats(warm_witnesses, outcome.successful_witnesses),
    )


register_model(
    "streaming",
    _streaming_clarkson_solve,
    config_cls=StreamingConfig,
    description=(
        "Multi-pass streaming Clarkson (Theorem 1): implicit stored-bases "
        "weights, two passes per iteration, O~(n^{1/r}) space."
    ),
    currencies=("passes", "space_peak_items", "space_peak_bits"),
    transports=("inprocess", "process", "tcp"),
    capabilities=("warm_restart", "ingest"),
)
