"""E1 — Result 1 / Theorems 1 and 4, streaming model.

Claim: linear programming can be solved in ``O(d * r)`` passes with
``O~(n^{1/r}) * poly(d, log n)`` space.  The benchmark sweeps ``n`` and ``r``
on random over-constrained LPs and records the measured pass counts and peak
space, which should (a) stay within the ``O(d * r)`` pass budget independent
of ``n`` and (b) shrink as ``r`` grows for fixed ``n``.
"""

from __future__ import annotations

import pytest

from repro.workloads import random_polytope_lp

from conftest import emit_row, facade_solve, record


@pytest.mark.parametrize("n", [2000, 8000])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_streaming_lp_passes_and_space(benchmark, n, r):
    instance = random_polytope_lp(n, 2, seed=n + r)
    def run():
        return facade_solve(instance.problem, "streaming", r=r, seed=17)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    d = instance.problem.dimension
    pass_budget = 8 * (d + 1) * r  # 2 passes/iteration, generous constant
    emit_row(
        "E1-streaming",
        n=n,
        d=d,
        r=r,
        passes=result.resources.passes,
        pass_budget=pass_budget,
        space_items=result.resources.space_peak_items,
        space_fraction=round(result.resources.space_peak_items / n, 3),
        objective=round(result.value.objective, 6),
    )
    record(
        benchmark,
        n=n,
        r=r,
        passes=result.resources.passes,
        space_items=result.resources.space_peak_items,
    )
    assert result.resources.passes <= pass_budget


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_streaming_lp_dimension_sweep(benchmark, dimension):
    """Pass count grows linearly (not exponentially) with the dimension."""
    instance = random_polytope_lp(4000, dimension, seed=dimension)
    def run():
        return facade_solve(instance.problem, "streaming", r=2, seed=23)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E1-streaming-dimension",
        n=4000,
        d=dimension,
        r=2,
        passes=result.resources.passes,
        space_items=result.resources.space_peak_items,
    )
    record(benchmark, d=dimension, passes=result.resources.passes)
    assert result.resources.passes <= 8 * (dimension + 1) * 2
