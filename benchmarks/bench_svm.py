"""E4 — Theorem 5: the same pass/round/communication bounds for linear SVM.

The SVM instantiation exercises the general LP-type path (quadratic objective,
QP basis solver) in all three models on separable labelled point clouds.
"""

from __future__ import annotations

import pytest

from repro.workloads import make_separable_classification, svm_problem

from conftest import emit_row, facade_solve, record


@pytest.fixture(scope="module")
def svm_instance():
    data = make_separable_classification(3000, 2, seed=42, margin=0.4)
    problem = svm_problem(data)
    exact = problem.solve()
    return problem, exact


def test_svm_streaming(benchmark, svm_instance):
    problem, exact = svm_instance
    def run():
        return facade_solve(problem, "streaming", r=2, seed=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E4-svm-streaming",
        n=problem.num_constraints,
        passes=result.resources.passes,
        space_items=result.resources.space_peak_items,
        norm_ratio=round(result.value.squared_norm / exact.value.squared_norm, 4),
    )
    record(benchmark, passes=result.resources.passes)
    assert result.value.squared_norm == pytest.approx(exact.value.squared_norm, rel=1e-2)


def test_svm_coordinator(benchmark, svm_instance):
    problem, exact = svm_instance
    def run():
        return facade_solve(problem, "coordinator", r=2, seed=2, num_sites=8)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E4-svm-coordinator",
        n=problem.num_constraints,
        rounds=result.resources.rounds,
        comm_kbits=result.resources.total_communication_bits // 1000,
        norm_ratio=round(result.value.squared_norm / exact.value.squared_norm, 4),
    )
    record(benchmark, rounds=result.resources.rounds)
    assert result.value.squared_norm == pytest.approx(exact.value.squared_norm, rel=1e-2)


def test_svm_mpc(benchmark, svm_instance):
    problem, exact = svm_instance
    def run():
        return facade_solve(problem, "mpc", r=2, seed=3, delta=0.5, num_machines=16)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E4-svm-mpc",
        n=problem.num_constraints,
        rounds=result.resources.rounds,
        load_kbits=result.resources.max_machine_load_bits // 1000,
        norm_ratio=round(result.value.squared_norm / exact.value.squared_norm, 4),
    )
    record(benchmark, rounds=result.resources.rounds)
    assert result.value.squared_norm == pytest.approx(exact.value.squared_norm, rel=1e-2)
