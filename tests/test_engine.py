"""Unit tests for the model-agnostic Clarkson engine and its strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    ClarksonEngine,
    EngineConfig,
    ExplicitWeightSubstrate,
    InMemorySampling,
    SamplingStrategy,
    ViolationOracle,
    ViolationStats,
    WeightSubstrate,
    iteration_budget,
)
from repro.core.exceptions import InvalidConfigError, IterationLimitError
from repro.core.lptype import BasisResult
from repro.core.weights import ExplicitWeights
from repro.workloads import random_polytope_lp

from tests.conftest import assert_objective_close


class _ScriptedSampler(SamplingStrategy):
    """Returns a fixed sample every iteration (for deterministic loop tests)."""

    def __init__(self, sample):
        self.sample = np.asarray(sample, dtype=int)
        self.draws = 0

    def draw(self, sample_size):
        self.draws += 1
        return self.sample


class _ScriptedSubstrate(WeightSubstrate):
    """Plays back a scripted sequence of (num_violators, fraction) pairs."""

    def __init__(self, script):
        self.script = list(script)
        self.boosts = 0

    def measure(self, sample, basis):
        num_violators, fraction = self.script.pop(0)
        return ViolationStats(num_violators=num_violators, weight_fraction=fraction)

    def boost(self, stats):
        self.boosts += 1


def _make_engine(problem, substrate, budget=10, epsilon=0.1, keep_trace=True):
    return ClarksonEngine(
        problem=problem,
        sampler=_ScriptedSampler(np.arange(5)),
        substrate=substrate,
        config=EngineConfig(
            sample_size=5, epsilon=epsilon, budget=budget, keep_trace=keep_trace,
            name="scripted",
        ),
    )


@pytest.fixture(scope="module")
def lp_problem():
    return random_polytope_lp(1200, 2, seed=21).problem


class TestEngineLoop:
    def test_terminates_on_empty_violator_set(self, lp_problem):
        substrate = _ScriptedSubstrate([(3, 0.5), (0, 0.0)])
        outcome = _make_engine(lp_problem, substrate).run()
        assert outcome.iterations == 2
        assert outcome.successful_iterations == 0
        assert substrate.boosts == 0

    def test_boost_only_on_success(self, lp_problem):
        # Iter 0: fail (fraction > eps). Iter 1: success. Iter 2: terminate.
        substrate = _ScriptedSubstrate([(5, 0.9), (4, 0.05), (0, 0.0)])
        outcome = _make_engine(lp_problem, substrate, epsilon=0.1).run()
        assert substrate.boosts == 1
        assert outcome.successful_iterations == 1
        assert [rec.successful for rec in outcome.trace] == [False, True, True]

    def test_trace_records_iteration_story(self, lp_problem):
        substrate = _ScriptedSubstrate([(7, 0.04), (0, 0.0)])
        outcome = _make_engine(lp_problem, substrate).run()
        assert len(outcome.trace) == outcome.iterations == 2
        assert outcome.trace[0].num_violators == 7
        assert outcome.trace[0].violator_weight_fraction == pytest.approx(0.04)
        assert outcome.trace[-1].num_violators == 0
        assert all(rec.sample_size == 5 for rec in outcome.trace)

    def test_keep_trace_disabled(self, lp_problem):
        substrate = _ScriptedSubstrate([(3, 0.05), (0, 0.0)])
        outcome = _make_engine(lp_problem, substrate, keep_trace=False).run()
        assert outcome.trace == []
        assert outcome.iterations == 2

    def test_budget_exhaustion_raises(self, lp_problem):
        substrate = _ScriptedSubstrate([(5, 0.9)] * 4)
        with pytest.raises(IterationLimitError):
            _make_engine(lp_problem, substrate, budget=4).run()


class TestIterationBudget:
    def test_explicit_budget_wins(self, lp_problem):
        assert iteration_budget(lp_problem, r=2, max_iterations=7) == 7

    def test_default_is_lemma_bound(self, lp_problem):
        nu = lp_problem.combinatorial_dimension
        assert iteration_budget(lp_problem, r=3, max_iterations=None) == 40 * nu * 3 + 40

    @pytest.mark.parametrize("bad", [0, -1, -40])
    def test_non_positive_budget_raises(self, lp_problem, bad):
        """0 / negative budgets used to fall through to the default silently."""
        with pytest.raises(InvalidConfigError, match="max_iterations"):
            iteration_budget(lp_problem, r=2, max_iterations=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_solver_config_rejects_non_positive_budget(self, bad):
        from repro import SolverConfig

        with pytest.raises(InvalidConfigError, match="max_iterations"):
            SolverConfig(max_iterations=bad)


class TestInMemoryBinding:
    def test_solves_lp_through_raw_engine(self, lp_problem):
        gen = np.random.default_rng(5)
        weights = ExplicitWeights.uniform(lp_problem.num_constraints, 40.0)
        substrate = ExplicitWeightSubstrate(lp_problem, weights)
        engine = ClarksonEngine(
            problem=lp_problem,
            sampler=InMemorySampling(weights, gen),
            substrate=substrate,
            config=EngineConfig(
                sample_size=400, epsilon=0.02, budget=500, name="in-memory"
            ),
        )
        outcome = engine.run()
        assert_objective_close(outcome.basis.value, lp_problem.solve().value)
        assert substrate.peak_items > 0

    def test_peak_tracks_sample_plus_bases(self, lp_problem):
        weights = ExplicitWeights.uniform(lp_problem.num_constraints, 40.0)
        substrate = ExplicitWeightSubstrate(lp_problem, weights)
        basis = lp_problem.solve_subset(np.arange(40))
        substrate.measure(np.arange(40), basis)
        nu = lp_problem.combinatorial_dimension
        assert substrate.peak_items == 40 + nu


class TestViolationOracle:
    def test_mask_matches_scalar_violates(self, lp_problem):
        oracle = ViolationOracle(lp_problem)
        basis = lp_problem.solve_subset(np.arange(30))
        indices = np.arange(200)
        mask = oracle.mask(basis.witness, indices)
        expected = np.array(
            [lp_problem.violates(basis.witness, int(i)) for i in indices]
        )
        assert np.array_equal(mask, expected)
        assert np.array_equal(oracle.violating(basis.witness, indices), indices[expected])

    def test_count_matrix_sums_masks(self, lp_problem):
        oracle = ViolationOracle(lp_problem)
        witnesses = [
            lp_problem.solve_subset(np.arange(k, k + 25)).witness for k in (0, 50, 100)
        ]
        indices = np.arange(300)
        counts = oracle.count_matrix(witnesses, indices)
        expected = sum(
            oracle.mask(w, indices).astype(int) for w in witnesses
        )
        assert np.array_equal(counts, expected)
