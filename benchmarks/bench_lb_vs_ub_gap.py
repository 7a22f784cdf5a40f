"""E9 — Theorems 9 and 10: streaming / coordinator lower bounds versus the upper bounds.

The lower bounds say an ``r``-pass streaming algorithm for 2-dimensional LP
needs ``Omega(n^{1/2r} / r^3)`` space and an ``r``-round coordinator protocol
needs ``Omega(n^{1/2r} / r^2)`` communication.  The benchmark solves the
2-d LPs obtained from hard TCI instances (the reduction of Corollary 8) with
the paper's own upper-bound algorithms and reports measured space /
communication next to the lower-bound curves: the measurements must sit above
the lower bounds, and the remaining gap is the (expected) ``n^{1/r}`` vs
``n^{1/2r}`` slack plus poly-log factors.
"""

from __future__ import annotations

import pytest

from repro.lower_bounds import sample_hard_instance, tci_to_linear_program
from repro.lower_bounds.tci import lp_optimum_to_index

from conftest import emit_row, facade_solve, record


@pytest.mark.parametrize("r", [1, 2])
def test_streaming_space_vs_lower_bound(benchmark, r):
    hard = sample_hard_instance(branching=20, rounds=2, seed=4)  # n = 400 points
    lp = tci_to_linear_program(hard.instance)
    def run():
        return facade_solve(lp, "streaming", r=r, seed=2)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    n = lp.num_constraints
    passes = result.resources.passes
    lower_bound_items = (n ** (1.0 / (2 * max(1, passes)))) / (max(1, passes) ** 3)
    decoded = lp_optimum_to_index(result.witness[0], hard.instance.length)
    emit_row(
        "E9-streaming-gap",
        n=n,
        r=r,
        passes=passes,
        measured_space_items=result.resources.space_peak_items,
        lower_bound_items=round(lower_bound_items, 2),
        answer_correct=decoded == hard.answer,
    )
    record(benchmark, r=r, space=result.resources.space_peak_items)
    assert decoded == hard.answer
    assert result.resources.space_peak_items >= lower_bound_items


@pytest.mark.parametrize("r", [1, 2])
def test_coordinator_communication_vs_lower_bound(benchmark, r):
    hard = sample_hard_instance(branching=20, rounds=2, seed=5)
    lp = tci_to_linear_program(hard.instance)
    def run():
        return facade_solve(lp, "coordinator", r=r, seed=3, num_sites=2)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    n = lp.num_constraints
    rounds = max(1, result.resources.rounds)
    lower_bound_values = (n ** (1.0 / (2 * rounds))) / (rounds ** 2)
    decoded = lp_optimum_to_index(result.witness[0], hard.instance.length)
    emit_row(
        "E9-coordinator-gap",
        n=n,
        r=r,
        rounds=result.resources.rounds,
        measured_comm_kbits=result.resources.total_communication_bits // 1000,
        lower_bound_values=round(lower_bound_values, 2),
        answer_correct=decoded == hard.answer,
    )
    record(benchmark, r=r, communication_bits=result.resources.total_communication_bits)
    assert decoded == hard.answer
    assert result.resources.total_communication_bits / 64 >= lower_bound_values
