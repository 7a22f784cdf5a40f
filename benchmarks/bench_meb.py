"""E5 — Theorem 6: the same bounds for core vector machines (minimum enclosing ball)."""

from __future__ import annotations

import pytest

from repro.problems import MinimumEnclosingBall
from repro.workloads import clustered_points

from conftest import emit_row, facade_solve, record


@pytest.fixture(scope="module")
def meb_instance():
    points = clustered_points(3000, 3, num_clusters=4, seed=7)
    problem = MinimumEnclosingBall(points=points)
    exact = problem.solve()
    return problem, exact


def test_meb_streaming(benchmark, meb_instance):
    problem, exact = meb_instance
    def run():
        return facade_solve(problem, "streaming", r=2, seed=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E5-meb-streaming",
        n=problem.num_constraints,
        passes=result.resources.passes,
        space_items=result.resources.space_peak_items,
        radius_ratio=round(result.value.radius / exact.value.radius, 4),
    )
    record(benchmark, passes=result.resources.passes)
    assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-2)


def test_meb_coordinator(benchmark, meb_instance):
    problem, exact = meb_instance
    def run():
        return facade_solve(problem, "coordinator", r=2, seed=2, num_sites=8)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E5-meb-coordinator",
        n=problem.num_constraints,
        rounds=result.resources.rounds,
        comm_kbits=result.resources.total_communication_bits // 1000,
        radius_ratio=round(result.value.radius / exact.value.radius, 4),
    )
    record(benchmark, rounds=result.resources.rounds)
    assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-2)


def test_meb_mpc(benchmark, meb_instance):
    problem, exact = meb_instance
    def run():
        return facade_solve(problem, "mpc", r=2, seed=3, delta=0.5, num_machines=16)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E5-meb-mpc",
        n=problem.num_constraints,
        rounds=result.resources.rounds,
        load_kbits=result.resources.max_machine_load_bits // 1000,
        radius_ratio=round(result.value.radius / exact.value.radius, 4),
    )
    record(benchmark, rounds=result.resources.rounds)
    assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-2)
