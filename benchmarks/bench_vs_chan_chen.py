"""E6 — Comparison with the Chan-Chen streaming baseline ([13] in the paper).

Two comparisons are made, matching the comparison the paper itself draws:

* **Pass-complexity models** — ``O(r^{d-1})`` for Chan-Chen versus
  ``O(d * r)`` for the paper's algorithm: the crossover in ``d`` is printed
  as a table (these are closed-form counts, the point of the comparison is
  the exponential-versus-linear growth in ``d``).
* **Measured 2-d runs** — the executable 2-d prune-and-search baseline and
  the randomised streaming algorithm solve the same envelope-form LPs (from
  the TCI reduction); passes and peak space are recorded for both.
"""

from __future__ import annotations

import pytest

from repro.algorithms import (
    chan_chen_2d_streaming,
    chan_chen_pass_count,
    clarkson_pass_count,
)
from repro.lower_bounds import sample_hard_instance, tci_to_linear_program
from repro.lower_bounds.tci import tci_to_envelope_lp

from conftest import emit_row, facade_solve, record


def test_pass_complexity_models(benchmark):
    """The closed-form pass counts: exponential vs linear growth in d."""

    def build_table():
        rows = []
        for d in range(2, 9):
            for r in (2, 4):
                rows.append(
                    {
                        "d": d,
                        "r": r,
                        "chan_chen": chan_chen_pass_count(d, r),
                        "this_paper": clarkson_pass_count(d, r),
                    }
                )
        return rows

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    for row in rows:
        emit_row("E6-pass-models", **row)
    crossover = min(r["d"] for r in rows if r["r"] == 4 and r["chan_chen"] > r["this_paper"])
    record(benchmark, crossover_dimension=crossover)
    assert crossover <= 5


@pytest.mark.parametrize("r", [2, 3])
def test_measured_2d_comparison(benchmark, r):
    hard = sample_hard_instance(branching=14, rounds=2, seed=r)  # n = 196 points
    envelope = tci_to_envelope_lp(hard.instance)
    lp = tci_to_linear_program(hard.instance)
    def run():
        baseline = chan_chen_2d_streaming(envelope, r=r)
        ours = facade_solve(lp, "streaming", r=r, seed=11)
        return baseline, ours

    baseline, ours = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E6-measured-2d",
        n_constraints=lp.num_constraints,
        r=r,
        chan_chen_passes=baseline.resources.passes,
        chan_chen_space=baseline.resources.space_peak_items,
        ours_passes=ours.resources.passes,
        ours_space=ours.resources.space_peak_items,
    )
    record(
        benchmark,
        chan_chen_passes=baseline.resources.passes,
        ours_passes=ours.resources.passes,
    )
    # Both algorithms minimise the same envelope; their objectives agree.
    assert baseline.value == pytest.approx(ours.value.objective, rel=1e-4, abs=1e-4)
