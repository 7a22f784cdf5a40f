"""Tests for the baseline algorithms and the Chan-Chen-style 2-d streaming LP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    EnvelopeLP,
    chan_chen_2d_streaming,
    chan_chen_pass_count,
    clarkson_classic_reweighting,
    clarkson_pass_count,
    exact_in_memory,
    ship_all_coordinator,
    single_pass_full_memory_streaming,
)
from repro.core.exceptions import InvalidInstanceError
from repro.workloads import random_feasible_lp, random_polytope_lp

from tests.conftest import assert_objective_close


class TestExactInMemory:
    def test_matches_problem_solve(self):
        problem = random_feasible_lp(200, 2, seed=0).problem
        result = exact_in_memory(problem)
        assert_objective_close(result.value, problem.solve().value)
        assert result.metadata["algorithm"] == "exact_in_memory"


class TestSinglePassBaseline:
    def test_costs_and_correctness(self):
        problem = random_feasible_lp(300, 2, seed=1).problem
        result = single_pass_full_memory_streaming(problem)
        assert result.resources.passes == 1
        assert result.resources.space_peak_items == 300
        assert_objective_close(result.value, problem.solve().value)


class TestShipAllBaseline:
    def test_costs_and_correctness(self):
        problem = random_feasible_lp(400, 2, seed=2).problem
        result = ship_all_coordinator(problem, num_sites=4)
        assert result.resources.rounds == 1
        # Every constraint crosses the network exactly once.
        expected_bits = 400 * problem.payload_num_coefficients() * 64
        assert result.resources.total_communication_bits >= expected_bits
        assert_objective_close(result.value, problem.solve().value)


class TestClassicReweighting:
    def test_correct_and_slower_than_paper_boost(self):
        instance = random_polytope_lp(1500, 2, seed=3)
        result = clarkson_classic_reweighting(instance.problem, r=2, rng=0, sample_scale=1.0)
        assert_objective_close(result.value, instance.problem.solve().value)
        assert result.metadata["algorithm"] == "clarkson_classic_reweighting"


class TestPassCountModels:
    def test_chan_chen_exponential_in_d(self):
        assert chan_chen_pass_count(2, 4) == 4
        assert chan_chen_pass_count(5, 4) == 4 ** 4
        assert chan_chen_pass_count(1, 7) == 1

    def test_clarkson_linear_in_d(self):
        assert clarkson_pass_count(2, 4) == 2 * 3 * 4 + 1
        assert clarkson_pass_count(5, 4) == 2 * 6 * 4 + 1

    def test_crossover(self):
        """For d >= 4 and r >= 4 the baseline needs more passes than the paper's algorithm."""
        for d in range(4, 9):
            assert chan_chen_pass_count(d, 4) > clarkson_pass_count(d, 4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chan_chen_pass_count(0, 2)
        with pytest.raises(ValueError):
            clarkson_pass_count(2, 0)


class TestEnvelopeLP:
    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            EnvelopeLP(slopes=[1.0], intercepts=[1.0, 2.0], x_low=0.0, x_high=1.0)
        with pytest.raises(InvalidInstanceError):
            EnvelopeLP(slopes=[1.0], intercepts=[1.0], x_low=2.0, x_high=1.0)

    def test_envelope_at(self):
        lp = EnvelopeLP(slopes=[1.0, -1.0], intercepts=[0.0, 4.0], x_low=0.0, x_high=4.0)
        assert lp.envelope_at(0.0) == pytest.approx(4.0)
        assert lp.envelope_at(2.0) == pytest.approx(2.0)


class TestChanChen2D:
    @staticmethod
    def _v_instance(num_lines=101, seed=0):
        """Lines tangent to the parabola y = x^2: the envelope minimum is ~0 at x ~ 0."""
        rng = np.random.default_rng(seed)
        touch = rng.uniform(-5.0, 5.0, size=num_lines)
        slopes = 2.0 * touch
        intercepts = -(touch ** 2)
        return EnvelopeLP(slopes=slopes, intercepts=intercepts, x_low=-6.0, x_high=6.0)

    def _reference_minimum(self, lp):
        grid = np.linspace(lp.x_low, lp.x_high, 20001)
        values = np.max(np.outer(lp.slopes, grid) + lp.intercepts[:, None], axis=0)
        return float(values.min())

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_reference_minimum(self, r):
        lp = self._v_instance(seed=r)
        reference = self._reference_minimum(lp)
        result = chan_chen_2d_streaming(lp, r=r)
        assert result.value == pytest.approx(reference, abs=1e-3)

    def test_pass_count_is_r_plus_one(self):
        lp = self._v_instance()
        result = chan_chen_2d_streaming(lp, r=3)
        assert result.resources.passes == 4

    def test_space_shrinks_with_more_passes(self):
        lp = self._v_instance(num_lines=2001, seed=5)
        few_passes = chan_chen_2d_streaming(lp, r=1)
        many_passes = chan_chen_2d_streaming(lp, r=4)
        assert many_passes.resources.space_peak_items < few_passes.resources.space_peak_items

    @pytest.mark.parametrize("seed", range(3))
    def test_basis_is_exactly_the_tight_lines(self, seed):
        rng = np.random.default_rng(seed)
        lp = EnvelopeLP(
            slopes=rng.normal(size=2000),
            intercepts=rng.normal(size=2000),
            x_low=-10.0,
            x_high=10.0,
        )
        result = chan_chen_2d_streaming(lp, r=3)
        x, y = result.witness
        gap = np.abs(lp.slopes * x + lp.intercepts - y) / max(1.0, abs(y))
        reported = list(result.basis_indices)
        # Every reported line attains the envelope minimum ...
        assert reported and np.all(gap[reported] <= 1e-8)
        # ... and every line that attains it is reported.
        assert set(np.flatnonzero(gap <= 1e-12).tolist()) <= set(reported)

    def test_empty_instance_rejected(self):
        lp = EnvelopeLP(slopes=np.zeros(0), intercepts=np.zeros(0), x_low=0.0, x_high=1.0)
        with pytest.raises(InvalidInstanceError):
            chan_chen_2d_streaming(lp, r=2)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            chan_chen_2d_streaming(self._v_instance(), r=0)
