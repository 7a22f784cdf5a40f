"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import random_feasible_lp, random_polytope_lp


@pytest.fixture(scope="session")
def small_lp():
    """A small feasible LP used by many unit tests (400 constraints, d=2)."""
    return random_feasible_lp(400, 2, seed=11).problem


@pytest.fixture(scope="session")
def medium_lp():
    """A medium LP whose sampling path is reachable with test parameters."""
    return random_polytope_lp(1600, 2, seed=7).problem


@pytest.fixture(scope="session")
def tiny_lp():
    """A tiny LP (30 constraints, d=2) for exhaustive / axiom checks."""
    return random_feasible_lp(30, 2, seed=3).problem


def fast_params(r: int = 2, sample_size: int = 400, threshold: float = 0.02) -> dict:
    """Cheap meta-algorithm config fields used by the integration tests.

    The paper-exact Lemma 2.2 constants need millions of constraints before
    the sub-linear regime kicks in; the integration tests instead fix a small
    explicit sample size and success threshold so that the iterative path
    (weight boosts, multiple passes/rounds) is exercised quickly.  Solver
    correctness does not depend on these choices — termination requires the
    violator set to be empty.  Pass them as ``repro.solve`` overrides
    (``solve(problem, model=..., seed=0, **fast_params())``).
    """
    return dict(
        r=r, sample_size=sample_size, success_threshold=threshold, max_iterations=500
    )


def assert_objective_close(value_a, value_b, tolerance: float = 1e-5) -> None:
    """Assert that two LP objective values agree up to a tolerance."""
    a = getattr(value_a, "objective", value_a)
    b = getattr(value_b, "objective", value_b)
    assert np.isfinite(a) and np.isfinite(b)
    assert abs(a - b) <= tolerance * max(1.0, abs(a), abs(b)), (a, b)
