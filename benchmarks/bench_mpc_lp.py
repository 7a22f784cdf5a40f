"""E3 — Result 1 / Theorems 3 and 4, MPC model.

Claim: ``O(d / delta^2)`` rounds with ``O~(n^delta) * poly(d, log n)`` load
per machine.  The benchmark sweeps ``delta`` and ``n`` and records rounds and
the maximum per-machine load; the load should be a small fraction of the
input and shrink (relative to ``n``) as ``delta`` decreases, at the price of
more rounds.
"""

from __future__ import annotations

import pytest

from repro.workloads import random_polytope_lp

from conftest import emit_row, facade_solve, record


@pytest.mark.parametrize("n", [2000, 8000])
@pytest.mark.parametrize("delta", [0.5, 1.0 / 3.0])
def test_mpc_lp_rounds_and_load(benchmark, n, delta):
    instance = random_polytope_lp(n, 2, seed=int(n * delta))
    def run():
        return facade_solve(
            instance.problem,
            "mpc",
            r=max(1, round(1.0 / delta)),
            seed=3,
            delta=delta,
            num_machines=16,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    input_bits = n * instance.problem.bit_size()
    emit_row(
        "E3-mpc",
        n=n,
        delta=round(delta, 3),
        machines=result.resources.machine_count,
        rounds=result.resources.rounds,
        load_kbits=result.resources.max_machine_load_bits // 1000,
        load_fraction_of_input=round(
            result.resources.max_machine_load_bits / input_bits, 4
        ),
    )
    record(
        benchmark,
        n=n,
        delta=delta,
        rounds=result.resources.rounds,
        load_bits=result.resources.max_machine_load_bits,
    )
    # The per-machine load never approaches the full input.
    assert result.resources.max_machine_load_bits < input_bits


def test_mpc_round_load_tradeoff(benchmark):
    """Smaller delta => more rounds, smaller broadcast fan-out."""
    instance = random_polytope_lp(6000, 2, seed=99)

    def run():
        shallow = facade_solve(
            instance.problem, "mpc", r=2, seed=4, delta=0.5, num_machines=16
        )
        deep = facade_solve(
            instance.problem, "mpc", r=4, seed=4, delta=0.25, num_machines=16
        )
        return shallow, deep

    shallow, deep = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E3-mpc-tradeoff",
        delta_05_rounds=shallow.resources.rounds,
        delta_05_load_kbits=shallow.resources.max_machine_load_bits // 1000,
        delta_025_rounds=deep.resources.rounds,
        delta_025_load_kbits=deep.resources.max_machine_load_bits // 1000,
    )
    record(benchmark, shallow_rounds=shallow.resources.rounds, deep_rounds=deep.resources.rounds)
    assert deep.resources.rounds >= shallow.resources.rounds
