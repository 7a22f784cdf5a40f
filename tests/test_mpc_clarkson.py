"""Integration tests for the MPC implementation (Theorem 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.algorithms import machines_for_load
from repro.problems import MinimumEnclosingBall
from repro.workloads import (
    make_separable_classification,
    random_feasible_lp,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

from tests.conftest import assert_objective_close, fast_params


class TestMachinesForLoad:
    def test_formula(self):
        assert machines_for_load(10_000, 0.5) == 100
        assert machines_for_load(1000, 0.5) == 32  # ceil(1000^0.5) = 32

    def test_invalid(self):
        with pytest.raises(ValueError):
            machines_for_load(100, 0.0)
        with pytest.raises(ValueError):
            machines_for_load(100, 1.0)
        with pytest.raises(ValueError):
            machines_for_load(0, 0.5)


class TestCorrectness:
    @pytest.mark.parametrize("delta", [0.5, 1.0 / 3.0])
    def test_matches_exact_optimum(self, delta):
        instance = random_polytope_lp(1500, 2, seed=1)
        exact = instance.problem.solve()
        result = solve(
            instance.problem,
            model="mpc",
            delta=delta,
            num_machines=16,
            seed=1,
            **fast_params(),
        )
        assert_objective_close(result.value, exact.value)

    def test_default_machine_count(self):
        instance = random_polytope_lp(1600, 2, seed=2)
        result = solve(
            instance.problem, model="mpc", delta=0.5, seed=2, **fast_params()
        )
        assert result.resources.machine_count == machines_for_load(1600, 0.5)
        assert_objective_close(result.value, instance.problem.solve().value)

    def test_svm(self):
        data = make_separable_classification(1000, 2, seed=3, margin=0.4)
        problem = svm_problem(data)
        exact = problem.solve()
        result = solve(
            problem,
            model="mpc",
            delta=0.5,
            num_machines=8,
            seed=3,
            **fast_params(sample_size=250),
        )
        assert result.value.squared_norm == pytest.approx(exact.value.squared_norm, rel=1e-3)

    def test_meb(self):
        points = uniform_ball_points(1200, 2, radius=2.0, seed=4)
        problem = MinimumEnclosingBall(points=points)
        exact = problem.solve()
        result = solve(
            problem,
            model="mpc",
            delta=0.5,
            num_machines=8,
            seed=4,
            **fast_params(sample_size=250),
        )
        assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-3)

    def test_invalid_delta(self):
        problem = random_feasible_lp(100, 2, seed=0).problem
        with pytest.raises(ValueError):
            solve(problem, model="mpc", delta=0.0)
        with pytest.raises(ValueError):
            solve(problem, model="mpc", delta=1.5)


class TestResourceAccounting:
    def test_load_is_sublinear_in_n(self):
        instance = random_polytope_lp(3000, 2, seed=5)
        result = solve(
            instance.problem,
            model="mpc",
            delta=0.5,
            seed=5,
            **fast_params(sample_size=300),
        )
        total_input_bits = 3000 * instance.problem.bit_size()
        assert 0 < result.resources.max_machine_load_bits < total_input_bits

    def test_rounds_scale_with_one_over_delta(self):
        instance = random_polytope_lp(1600, 2, seed=6)
        shallow = solve(
            instance.problem,
            model="mpc",
            delta=0.5,
            num_machines=16,
            seed=6,
            **fast_params(sample_size=500),
        )
        deep = solve(
            instance.problem,
            model="mpc",
            delta=0.25,
            num_machines=16,
            seed=6,
            **fast_params(r=4, sample_size=500),
        )
        # Smaller delta => smaller broadcast fan-out => more rounds per iteration.
        assert deep.resources.rounds >= shallow.resources.rounds

    def test_single_machine_degenerates_to_direct(self):
        problem = random_feasible_lp(300, 2, seed=7).problem
        result = solve(
            problem, model="mpc", delta=0.5, num_machines=1, seed=7, **fast_params()
        )
        assert result.resources.machine_count == 1
        assert_objective_close(result.value, problem.solve().value)

    def test_metadata(self):
        instance = random_polytope_lp(1500, 2, seed=8)
        result = solve(
            instance.problem,
            model="mpc",
            delta=0.5,
            num_machines=9,
            seed=8,
            **fast_params(),
        )
        assert result.metadata["algorithm"] == "mpc_clarkson"
        assert result.metadata["k"] == 9
        assert result.metadata["delta"] == 0.5
        assert result.metadata["fanout"] >= 2
