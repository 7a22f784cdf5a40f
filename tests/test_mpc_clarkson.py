"""Integration tests for the MPC implementation (Theorem 3)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import kernels, solve
from repro.algorithms import machines_for_load
from repro.algorithms import mpc_clarkson as mpc
from repro.core.engine import ViolationOracle
from repro.core.rng import as_generator
from repro.fabric.topology import GridTopology
from repro.fabric.transport import InProcessTransport
from repro.problems import MinimumEnclosingBall
from repro.problems.qp import ConvexQuadraticProgram
from repro.workloads import (
    make_separable_classification,
    random_feasible_lp,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

from tests.conftest import assert_objective_close, fast_params


class TestMachinesForLoad:
    def test_formula(self):
        assert machines_for_load(10_000, 0.5) == 100
        assert machines_for_load(1000, 0.5) == 32  # ceil(1000^0.5) = 32

    def test_invalid(self):
        with pytest.raises(ValueError):
            machines_for_load(100, 0.0)
        with pytest.raises(ValueError):
            machines_for_load(100, 1.0)
        with pytest.raises(ValueError):
            machines_for_load(0, 0.5)


class TestCorrectness:
    @pytest.mark.parametrize("delta", [0.5, 1.0 / 3.0])
    def test_matches_exact_optimum(self, delta):
        instance = random_polytope_lp(1500, 2, seed=1)
        exact = instance.problem.solve()
        result = solve(
            instance.problem,
            model="mpc",
            delta=delta,
            num_machines=16,
            seed=1,
            **fast_params(),
        )
        assert_objective_close(result.value, exact.value)

    def test_default_machine_count(self):
        instance = random_polytope_lp(1600, 2, seed=2)
        result = solve(
            instance.problem, model="mpc", delta=0.5, seed=2, **fast_params()
        )
        assert result.resources.machine_count == machines_for_load(1600, 0.5)
        assert_objective_close(result.value, instance.problem.solve().value)

    def test_svm(self):
        data = make_separable_classification(1000, 2, seed=3, margin=0.4)
        problem = svm_problem(data)
        exact = problem.solve()
        result = solve(
            problem,
            model="mpc",
            delta=0.5,
            num_machines=8,
            seed=3,
            **fast_params(sample_size=250),
        )
        assert result.value.squared_norm == pytest.approx(exact.value.squared_norm, rel=1e-3)

    def test_meb(self):
        points = uniform_ball_points(1200, 2, radius=2.0, seed=4)
        problem = MinimumEnclosingBall(points=points)
        exact = problem.solve()
        result = solve(
            problem,
            model="mpc",
            delta=0.5,
            num_machines=8,
            seed=4,
            **fast_params(sample_size=250),
        )
        assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-3)

    def test_invalid_delta(self):
        problem = random_feasible_lp(100, 2, seed=0).problem
        with pytest.raises(ValueError):
            solve(problem, model="mpc", delta=0.0)
        with pytest.raises(ValueError):
            solve(problem, model="mpc", delta=1.5)


class TestResourceAccounting:
    def test_load_is_sublinear_in_n(self):
        instance = random_polytope_lp(3000, 2, seed=5)
        result = solve(
            instance.problem,
            model="mpc",
            delta=0.5,
            seed=5,
            **fast_params(sample_size=300),
        )
        total_input_bits = 3000 * instance.problem.bit_size()
        assert 0 < result.resources.max_machine_load_bits < total_input_bits

    def test_rounds_scale_with_one_over_delta(self):
        instance = random_polytope_lp(1600, 2, seed=6)
        shallow = solve(
            instance.problem,
            model="mpc",
            delta=0.5,
            num_machines=16,
            seed=6,
            **fast_params(sample_size=500),
        )
        deep = solve(
            instance.problem,
            model="mpc",
            delta=0.25,
            num_machines=16,
            seed=6,
            **fast_params(r=4, sample_size=500),
        )
        # Smaller delta => smaller broadcast fan-out => more rounds per iteration.
        assert deep.resources.rounds >= shallow.resources.rounds

    def test_single_machine_degenerates_to_direct(self):
        problem = random_feasible_lp(300, 2, seed=7).problem
        result = solve(
            problem, model="mpc", delta=0.5, num_machines=1, seed=7, **fast_params()
        )
        assert result.resources.machine_count == 1
        assert_objective_close(result.value, problem.solve().value)

    def test_metadata(self):
        instance = random_polytope_lp(1500, 2, seed=8)
        result = solve(
            instance.problem,
            model="mpc",
            delta=0.5,
            num_machines=9,
            seed=8,
            **fast_params(),
        )
        assert result.metadata["algorithm"] == "mpc_clarkson"
        assert result.metadata["k"] == 9
        assert result.metadata["delta"] == 0.5
        assert result.metadata["fanout"] >= 2


def _family_problem(family: str, n: int = 1200, d: int = 3, seed: int = 21):
    if family == "lp":
        return random_polytope_lp(n, d, seed=seed).problem
    if family == "meb":
        return MinimumEnclosingBall(uniform_ball_points(n, d, seed=seed))
    if family == "svm":
        return svm_problem(make_separable_classification(n, d, seed=seed))
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(n, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchor = rng.uniform(-1.0, 1.0, size=d)
    return ConvexQuadraticProgram(
        np.diag(np.linspace(1.0, 2.0, d)),
        rng.normal(size=d),
        normals,
        normals @ anchor - rng.uniform(0.1, 1.0, size=n),
    )


def _rng_state(state: dict) -> dict:
    return state["rng"].bit_generator.state


def _same_state(a: dict, b: dict) -> bool:
    """The machine states hold the same keys and the same values."""
    if set(a) != set(b) or _rng_state(a) != _rng_state(b):
        return False
    for key in ("local_indices", "weights", "log_weights"):
        if key in a and not np.array_equal(a[key], b[key]):
            return False
    return len(a["witnesses"]) == len(b["witnesses"]) and all(
        a[key] == b[key] for key in ("boost", "weights_version", "kernel")
    )


def _same_block(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a.indices, b.indices) and np.array_equal(a.rows, b.rows)


class TestBatchedTasks:
    """Each machine task's batched form equals its per-node form, bit for bit.

    The per-node forms run over deep copies of the installed machine states
    and the batched forms over the originals, step for step through one
    iteration's worth of tasks; results and the machine states (RNG states
    included) after every step must match exactly.
    """

    @staticmethod
    def _machines(problem, partition, warm, backend):
        topology = GridTopology(len(partition), transport=InProcessTransport())
        state = mpc._MPCState(
            problem=problem,
            topology=topology,
            oracle=ViolationOracle(problem),
            boost=3.0,
            fanout=4,
            gen=as_generator(17),
            warm_witnesses=warm,
            kernel_backend=backend,
        )
        state.install_machines(partition)
        states = [
            topology.transport._states[(topology.session, machine)]
            for machine in range(topology.num_machines)
        ]
        return states, copy.deepcopy(states)

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("family", ["lp", "meb", "svm", "qp"])
    def test_batched_equals_per_node(self, family, backend):
        problem = _family_problem(family)
        n = problem.num_constraints
        # A custom partition: uneven shuffled blocks plus one empty machine.
        order = np.random.default_rng(5).permutation(n)
        cuts = [0, 100, 100, 450, 700, 1000, n]
        partition = [np.sort(order[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        warm = [problem.solve_subset(np.arange(0, 40)).witness]
        originals, copies = self._machines(problem, partition, warm, backend)
        k = len(partition)

        def run(fn, args_list, ids=None):
            """``(batched results, per-node results)`` of one task step."""
            ids = range(k) if ids is None else ids
            batched = fn.batched([originals[i] for i in ids], list(args_list))
            per_node = [fn(copies[i], *args)[1] for i, args in zip(ids, args_list)]
            for original, duplicate in zip(originals, copies):
                assert _same_state(original, duplicate)
            return batched, per_node

        totals, expected = run(mpc._machine_weight_total, [()] * k)
        assert totals == expected
        assert totals[1] == 0.0  # the empty machine
        total = float(sum(totals))

        blocks, expected = run(mpc._machine_sample, [(25, total)] * k)
        assert all(_same_block(a, b) for a, b in zip(blocks, expected))
        assert blocks[1] is None
        sample = np.unique(np.concatenate([b.indices for b in blocks if b is not None]))
        witness = problem.solve_subset(sample).witness

        stats, expected = run(mpc._machine_stats, [(witness,)] * k)
        assert stats == expected
        assert stats[1] == (0.0, 0)
        assert sum(count for _, count in stats) > 0

        for original, duplicate in zip(originals, copies):
            mpc._machine_store_witness(original, witness)
            mpc._machine_store_witness(duplicate, witness)

        # A subset of the machines, in a non-sorted order, after the new basis.
        subset = [4, 0, 2]
        totals, expected = run(mpc._machine_weight_total, [()] * len(subset), subset)
        assert totals == expected
        stats, expected = run(mpc._machine_stats, [(witness,)] * len(subset), subset)
        assert stats == expected
        blocks, expected = run(
            mpc._machine_sample, [(25, total)] * len(subset), subset
        )
        assert all(_same_block(a, b) for a, b in zip(blocks, expected))

        # Back to every machine: the weights of the machines outside the
        # subset are still stale and refresh on their own.
        totals, expected = run(mpc._machine_weight_total, [()] * k)
        assert totals == expected
        blocks, expected = run(mpc._machine_sample, [(25, float(sum(totals)))] * k)
        assert all(_same_block(a, b) for a, b in zip(blocks, expected))

    def test_in_process_transport_calls_the_batched_form_once(self):
        calls = []

        def task(state, amount):
            state["count"] += amount
            return state, state["count"]

        def task_batched(states, args_list):
            calls.append(len(states))
            return [task(state, *args)[1] for state, args in zip(states, args_list)]

        task.batched = task_batched
        transport = InProcessTransport()
        for node in range(3):
            transport.init_node("s", node, {"count": node})
        assert transport.run_nodes("s", [2, 0], task, [(10,), (20,)]) == [12, 20]
        assert transport.run_nodes("s", [], task, []) == []
        assert calls == [2]
