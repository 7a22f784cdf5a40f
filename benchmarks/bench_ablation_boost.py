"""A1 — Ablation: the n^{1/r} weight boost versus Clarkson's classical factor 2.

The only change the paper makes to Clarkson's reweighting is the much more
aggressive boost of violator weights (``n^{1/r}`` instead of 2), which is
what brings the number of successful iterations down from ``Theta(d log n)``
to ``O(d r)``.  The ablation runs both variants with identical sampling and
reports the iteration counts.
"""

from __future__ import annotations

import pytest

from repro import solve
from repro.workloads import random_polytope_lp

from conftest import emit_row, practical_config, record


@pytest.mark.parametrize("n", [4000, 16000])
def test_boost_ablation(benchmark, n):
    instance = random_polytope_lp(n, 2, seed=n)
    base = practical_config(instance.problem, r=2, seed=21)

    def run():
        paper = solve(instance.problem, model="sequential", config=base)
        classic = solve(
            instance.problem,
            model="sequential",
            config=base,
            boost=2.0,
            max_iterations=4000,
        )
        return paper, classic

    paper, classic = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "A1-boost-ablation",
        n=n,
        paper_boost_iterations=paper.iterations,
        paper_boost_successful=paper.successful_iterations,
        classic_boost_iterations=classic.iterations,
        classic_boost_successful=classic.successful_iterations,
        same_objective=abs(paper.value.objective - classic.value.objective) < 1e-4,
    )
    record(
        benchmark,
        paper_iterations=paper.iterations,
        classic_iterations=classic.iterations,
    )
    assert abs(paper.value.objective - classic.value.objective) < 1e-4
    assert classic.successful_iterations >= paper.successful_iterations
