"""The correctness gate: reference objectives and per-op certificates.

A reference objective is computed once per instance, outside every timed
window, with the sequential model on the ``numpy`` reference kernel backend.
LP references are checked again with scipy's HiGHS: on the full instance up
to :data:`HIGHS_FULL_MAX_ROWS` rows, and above that on the rows active at the
reference point only, which together with a full feasibility sweep of that
point certifies the same optimum without a multi-gigabyte HiGHS model.

Every op is then checked in two ways: its objective matches the reference
within a relative tolerance of ``max(REL_TOL, problem.tolerance)`` — the
instance's own constraint tolerance, 1e-5 for MEB, whose solver is
approximate at that level — and its witness violates no constraint in a full
float64 sweep on the ``numpy`` backend, never the kernel that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

#: Relative objective tolerance, scaled by ``max(1, |reference|)`` — the same
#: rule the problem values use for equality at their default tolerance.
REL_TOL = 1e-6

#: Largest LP row count checked by HiGHS on the full instance.
HIGHS_FULL_MAX_ROWS = 100_000

#: Relative slack under which a row counts as active at the reference point.
ACTIVE_TOL = 1e-6


@dataclass(frozen=True)
class Reference:
    objective: float
    witness: Any


def objective(value: Any) -> float:
    """The scalar each family minimises (LP/QP objective, MEB radius, SVM norm)."""
    if getattr(value, "infeasible", False):
        raise ValueError("infeasible value")
    for attr in ("objective", "radius", "squared_norm"):
        scalar = getattr(value, attr, None)
        if scalar is not None:
            return float(scalar)
    raise TypeError(f"no objective on {type(value).__name__}")


def violators(problem: Any, witness: Any) -> int:
    """Constraints ``witness`` violates, by a full float64 sweep on ``numpy``."""
    from repro.kernels import use_backend

    with use_backend("numpy"):
        return int(np.count_nonzero(problem.violation_mask(witness, problem.all_indices())))


def matches(value: float, reference: float, tolerance: float = REL_TOL) -> bool:
    return abs(value - reference) <= max(REL_TOL, tolerance) * max(1.0, abs(reference))


def _highs(c: np.ndarray, a: np.ndarray, b: np.ndarray, box: Any) -> float:
    from scipy.optimize import linprog

    bounds = [(-box, box) if box else (None, None)] * c.size
    result = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS failed: {result.message}")
    return float(result.fun)


def reference(problem: Any, r: int, seed: int) -> Reference:
    """Solve ``problem`` on the reference path and certify the answer."""
    from repro import SolverConfig, solve
    from repro.problems import LinearProgram

    config = SolverConfig.practical(
        problem, r=r, keep_trace=False, seed=seed, kernel_backend="numpy"
    )
    result = solve(problem, model="sequential", config=config)
    value = objective(result.value)
    if violators(problem, result.witness):
        raise RuntimeError("reference witness violates its own instance")
    if isinstance(problem, LinearProgram):
        if problem.num_constraints <= HIGHS_FULL_MAX_ROWS:
            rows = slice(None)
        else:
            # The rows active at the reference point: if HiGHS finds no lower
            # objective over them alone, the point (feasible for every row,
            # checked above) is optimal for the full instance.
            x = np.asarray(result.witness, dtype=float)
            slack = problem.a @ x - problem.b
            rows = np.flatnonzero(slack >= -ACTIVE_TOL * (1.0 + np.abs(problem.b)))
        highs = _highs(problem.c, problem.a[rows], problem.b[rows], problem.box_bound)
        if not matches(highs, value):
            raise RuntimeError(f"HiGHS objective {highs!r} != reference {value!r}")
    return Reference(value, result.witness)


def op_failure(problem: Any, ref: Reference, result: Any) -> str | None:
    """Why one op's result is wrong, or ``None`` when it is certified."""
    try:
        value = objective(result.value)
    except (TypeError, ValueError) as exc:
        return f"bad value: {exc}"
    if not matches(value, ref.objective, getattr(problem, "tolerance", REL_TOL)):
        return f"objective {value!r} != reference {ref.objective!r}"
    bad = violators(problem, result.witness)
    if bad:
        return f"witness violates {bad} constraints"
    return None
