"""Tests for the sequential reference implementation of Algorithm 1."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolverConfig, solve
from repro.core.clarkson import resolve_sampling, solve_small_problem
from repro.workloads import (
    make_separable_classification,
    random_feasible_lp,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)
from repro.problems import MinimumEnclosingBall

from tests.conftest import assert_objective_close, fast_params


class TestResolveSampling:
    def test_defaults_use_lemma_bound(self):
        problem = random_feasible_lp(100, 2, seed=0).problem
        size, eps = resolve_sampling(problem, SolverConfig(r=2))
        assert size == 100  # the Lemma 2.2 bound exceeds n at this scale
        assert eps == pytest.approx(1.0 / (10 * 3 * 10.0))

    def test_overrides_respected(self):
        problem = random_feasible_lp(100, 2, seed=0).problem
        config = SolverConfig(r=2, sample_size=37, success_threshold=0.05)
        size, eps = resolve_sampling(problem, config)
        assert size == 37
        assert eps == pytest.approx(0.05)

    def test_sample_size_capped_at_n(self):
        problem = random_feasible_lp(50, 2, seed=0).problem
        config = SolverConfig(r=2, sample_size=500)
        size, _ = resolve_sampling(problem, config)
        assert size == 50


class TestPracticalParameters:
    def test_scaling_with_n(self):
        small = SolverConfig.practical(random_feasible_lp(1000, 2, seed=0).problem, r=2)
        large = SolverConfig.practical(random_feasible_lp(16000, 2, seed=0).problem, r=2)
        # Sample size grows roughly like sqrt(n) for r=2 (up to the log factor).
        assert large.sample_size > small.sample_size
        assert large.sample_size < 16000

    def test_threshold_small_enough_for_iteration_bound(self):
        problem = random_feasible_lp(5000, 2, seed=0).problem
        config = SolverConfig.practical(problem, r=2)
        n, nu, r = 5000, 3, 2
        assert config.success_threshold <= np.log(n) / (2 * nu * r * n ** 0.5) + 1e-12

    def test_invalid_r(self):
        problem = random_feasible_lp(100, 2, seed=0).problem
        with pytest.raises(ValueError):
            SolverConfig.practical(problem, r=0)


class TestSolveSmallProblem:
    def test_matches_direct_solve(self):
        problem = random_feasible_lp(80, 2, seed=1).problem
        result = solve_small_problem(problem)
        assert_objective_close(result.value, problem.solve().value)
        assert result.metadata["algorithm"] == "direct"


class TestClarksonSolveLP:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exact_optimum(self, seed):
        instance = random_polytope_lp(1500, 2, seed=seed)
        exact = instance.problem.solve()
        result = solve(instance.problem, model="sequential", seed=seed, **fast_params())
        assert_objective_close(result.value, exact.value)

    def test_final_witness_is_feasible(self):
        instance = random_feasible_lp(1200, 3, seed=5)
        result = solve(
            instance.problem, model="sequential", seed=1, **fast_params(sample_size=500)
        )
        assert instance.problem.is_feasible(result.witness)

    def test_small_problem_falls_back_to_direct(self):
        problem = random_feasible_lp(50, 2, seed=2).problem
        result = solve(problem, model="sequential", r=2, seed=0)
        assert result.metadata["r"] == 2
        assert result.iterations == 1

    def test_iteration_trace_recorded(self):
        instance = random_polytope_lp(1500, 2, seed=3)
        result = solve(instance.problem, model="sequential", seed=2, **fast_params())
        assert len(result.trace) == result.iterations
        assert result.trace[-1].num_violators == 0
        assert all(rec.sample_size > 0 for rec in result.trace)

    def test_successful_iterations_bounded(self):
        instance = random_polytope_lp(2000, 2, seed=4)
        config = SolverConfig.practical(instance.problem, r=2, seed=3)
        result = solve(instance.problem, model="sequential", config=config)
        nu, r = 3, 2
        assert result.successful_iterations <= 4 * nu * r

    def test_space_is_sublinear_with_small_samples(self):
        instance = random_polytope_lp(3000, 2, seed=5)
        result = solve(
            instance.problem, model="sequential", seed=4, **fast_params(sample_size=300)
        )
        assert result.resources.space_peak_items < 3000

    def test_classic_boost_needs_more_iterations(self):
        instance = random_polytope_lp(2000, 2, seed=6)
        fast = solve(
            instance.problem,
            model="sequential",
            seed=5,
            **fast_params(sample_size=300, threshold=0.02),
        )
        slow = solve(
            instance.problem,
            model="sequential",
            r=2,
            sample_size=300,
            success_threshold=0.02,
            boost=2.0,
            max_iterations=2000,
            seed=5,
        )
        assert_objective_close(fast.value, slow.value)
        assert slow.successful_iterations >= fast.successful_iterations

    def test_empty_problem_rejected(self):
        problem = random_feasible_lp(10, 2, seed=0).problem
        problem.a = problem.a[:0]
        problem.b = problem.b[:0]
        with pytest.raises(ValueError):
            solve(problem, model="sequential")


class TestClarksonSolveOtherProblems:
    def test_svm(self):
        data = make_separable_classification(1200, 2, seed=7, margin=0.4)
        problem = svm_problem(data)
        exact = problem.solve()
        result = solve(problem, model="sequential", seed=6, **fast_params(sample_size=250))
        assert result.value.squared_norm == pytest.approx(
            exact.value.squared_norm, rel=1e-3
        )

    def test_meb(self):
        points = uniform_ball_points(1500, 2, radius=3.0, seed=8)
        problem = MinimumEnclosingBall(points=points)
        exact = problem.solve()
        result = solve(problem, model="sequential", seed=7, **fast_params(sample_size=250))
        assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-3)
