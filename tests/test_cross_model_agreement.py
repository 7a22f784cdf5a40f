"""Cross-model agreement: all four drivers agree on shared seeded instances.

The paper's point is that ONE meta-algorithm instantiates in every model;
these tests pin that down operationally: the sequential, streaming,
coordinator, and MPC drivers must return the same optimum value (within
tolerance) and a witness feasible for the reported basis on the same LP /
MEB / SVM / QP instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.api import get_model
from repro.core.exceptions import InvalidInstanceError
from repro.problems import (
    ConvexQuadraticProgram,
    LinearProgram,
    LinearSVM,
    MinimumEnclosingBall,
)
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

from tests.conftest import fast_params


def _lp_instance():
    return random_polytope_lp(1400, 2, seed=31).problem


def _meb_instance():
    return MinimumEnclosingBall(points=uniform_ball_points(1400, 2, radius=2.5, seed=32))


def _svm_instance():
    data = make_separable_classification(1200, 2, seed=33, margin=0.4)
    return svm_problem(data)


def _qp_instance():
    # A strictly convex QP whose constraints are random halfspaces around a
    # shifted quadratic bowl (feasible by construction: x = 5 * ones works).
    rng = np.random.default_rng(34)
    d = 2
    g = rng.normal(size=(1200, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    h = g.sum(axis=1) * 5.0 - rng.uniform(0.5, 4.0, size=1200)
    return ConvexQuadraticProgram(
        q_matrix=np.eye(d) * 2.0, q_vector=np.ones(d), g_matrix=g, h_vector=h
    )


def _scalar(value):
    for attr in ("objective", "radius", "squared_norm"):
        if hasattr(value, attr):
            return float(getattr(value, attr))
    return float(value)


@pytest.mark.parametrize(
    "make_problem", [_lp_instance, _meb_instance, _svm_instance, _qp_instance],
    ids=["lp", "meb", "svm", "qp"],
)
def test_all_four_models_agree(make_problem):
    problem = make_problem()
    params = fast_params(sample_size=350)
    exact = _scalar(problem.solve().value)

    results = {
        "sequential": solve(problem, model="sequential", seed=1, **params),
        "streaming": solve(problem, model="streaming", seed=2, **params),
        "coordinator": solve(
            problem, model="coordinator", num_sites=4, seed=3, **params
        ),
        "mpc": solve(problem, model="mpc", delta=0.5, num_machines=8, seed=4, **params),
    }

    for name, result in results.items():
        value = _scalar(result.value)
        assert value == pytest.approx(exact, rel=1e-3, abs=1e-6), (name, value, exact)
        # The reported basis must certify the value: re-solving the basis
        # alone reproduces the optimum.
        basis_value = _scalar(problem.solve_subset(result.basis_indices).value)
        assert basis_value == pytest.approx(value, rel=1e-3, abs=1e-6), name
        # The witness must satisfy every basis constraint.
        assert problem.violating_indices(
            result.witness, np.asarray(result.basis_indices, dtype=int)
        ).size == 0, name


@pytest.mark.parametrize(
    "make_problem", [_lp_instance, _meb_instance], ids=["lp", "meb"]
)
def test_engine_metadata_consistent_across_models(make_problem):
    """All drivers resolve the same sampling regime for the same parameters."""
    problem = make_problem()
    params = fast_params(sample_size=350)
    seq = solve(problem, model="sequential", seed=1, **params)
    stream = solve(problem, model="streaming", seed=2, **params)
    coord = solve(problem, model="coordinator", num_sites=4, seed=3, **params)
    mpc = solve(problem, model="mpc", delta=0.5, num_machines=8, seed=4, **params)
    sizes = {r.metadata["sample_size"] for r in (seq, stream, coord, mpc)}
    epsilons = {r.metadata["epsilon"] for r in (seq, stream, coord, mpc)}
    boosts = {r.metadata["boost"] for r in (seq, stream, coord, mpc)}
    assert len(sizes) == 1 and len(epsilons) == 1 and len(boosts) == 1


@pytest.mark.parametrize(
    "make_problem", [_lp_instance, _meb_instance, _svm_instance, _qp_instance],
    ids=["lp", "meb", "svm", "qp"],
)
def test_ship_all_baseline_matches_coordinator_ship_all_path(make_problem):
    """The baseline and the coordinator's small-instance path run the same
    one-round exchange, so they report the same resources."""
    problem = make_problem()
    n = problem.num_constraints
    baseline = solve(problem, model="ship_all_coordinator", num_sites=4)
    coordinator = solve(problem, model="coordinator", num_sites=4, sample_size=n)
    for currency in get_model("ship_all_coordinator").currencies:
        assert getattr(baseline.resources, currency) == getattr(
            coordinator.resources, currency
        ), currency
    assert baseline.resources.max_machine_load_bits > 0


def _poisoned(array, index, value):
    """A copy of ``array`` with one entry replaced by ``value``."""
    array = np.array(array, dtype=float)
    array[index] = value
    return array


@pytest.mark.parametrize(
    "case",
    ["lp-nan-row", "lp-inf-rhs", "lp-nan-objective", "meb-nan-point",
     "svm-nan-coordinate", "qp-nan-constraint"],
)
def test_non_finite_instances_are_rejected(case):
    """A NaN/inf entry is a malformed instance, never a constraint to drop."""
    lp, meb, svm, qp = _lp_instance(), _meb_instance(), _svm_instance(), _qp_instance()
    build = {
        "lp-nan-row": lambda: LinearProgram(lp.c, _poisoned(lp.a, 5, np.nan), lp.b),
        "lp-inf-rhs": lambda: LinearProgram(lp.c, lp.a, _poisoned(lp.b, 3, np.inf)),
        "lp-nan-objective": lambda: LinearProgram(_poisoned(lp.c, 0, np.nan), lp.a, lp.b),
        "meb-nan-point": lambda: MinimumEnclosingBall(_poisoned(meb.points, (5, 0), np.nan)),
        "svm-nan-coordinate": lambda: LinearSVM(
            _poisoned(svm.points, (5, 1), np.nan), svm.labels
        ),
        "qp-nan-constraint": lambda: ConvexQuadraticProgram(
            qp.q_matrix, qp.q_vector, _poisoned(qp.g_matrix, (5, 0), np.nan), qp.h_vector
        ),
    }[case]
    with pytest.raises(InvalidInstanceError, match="non-finite"):
        build()
