"""Integration tests for the streaming implementation of Algorithm 1 (Theorem 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.algorithms import single_pass_full_memory_streaming
from repro.problems import MinimumEnclosingBall
from repro.workloads import (
    make_separable_classification,
    random_feasible_lp,
    random_polytope_lp,
    random_order,
    sorted_by_tightness_order,
    svm_problem,
    uniform_ball_points,
)

from tests.conftest import assert_objective_close, fast_params


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exact_optimum_lp(self, seed):
        instance = random_polytope_lp(1500, 2, seed=seed)
        exact = instance.problem.solve()
        result = solve(instance.problem, model="streaming", seed=seed, **fast_params())
        assert_objective_close(result.value, exact.value)

    def test_order_insensitive(self):
        instance = random_polytope_lp(1500, 2, seed=10)
        exact = instance.problem.solve()
        shuffled = random_order(1500, seed=1)
        adversarial = sorted_by_tightness_order(
            instance.problem.a, instance.problem.b, np.zeros(2)
        )
        for order in (shuffled, adversarial):
            result = solve(
                instance.problem,
                model="streaming",
                order=order,
                seed=2,
                **fast_params(),
            )
            assert_objective_close(result.value, exact.value)

    def test_svm_streaming(self):
        data = make_separable_classification(1200, 2, seed=3, margin=0.4)
        problem = svm_problem(data)
        exact = problem.solve()
        result = solve(
            problem, model="streaming", seed=3, **fast_params(sample_size=250)
        )
        assert result.value.squared_norm == pytest.approx(
            exact.value.squared_norm, rel=1e-3
        )

    def test_meb_streaming(self):
        points = uniform_ball_points(1500, 2, radius=2.0, seed=4)
        problem = MinimumEnclosingBall(points=points)
        exact = problem.solve()
        result = solve(
            problem, model="streaming", seed=4, **fast_params(sample_size=250)
        )
        assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-3)

    def test_matches_trivial_baseline(self):
        instance = random_feasible_lp(900, 3, seed=5)
        baseline = single_pass_full_memory_streaming(instance.problem)
        result = solve(
            instance.problem, model="streaming", seed=5, **fast_params(sample_size=400)
        )
        assert_objective_close(result.value, baseline.value)


class TestResourceAccounting:
    def test_two_passes_per_iteration(self):
        instance = random_polytope_lp(1500, 2, seed=6)
        result = solve(instance.problem, model="streaming", seed=6, **fast_params())
        assert result.resources.passes == 2 * result.iterations

    def test_pass_count_within_theorem_bound(self):
        instance = random_polytope_lp(2000, 2, seed=7)
        result = solve(
            instance.problem, model="streaming", seed=7, **fast_params(sample_size=400)
        )
        nu, r = 3, 2
        # Theorem 1 allows O(nu * r) iterations; with the 2-passes-per-iteration
        # implementation and a generous constant this is 8 * nu * r passes.
        assert result.resources.passes <= 8 * nu * r

    def test_space_is_sublinear(self):
        instance = random_polytope_lp(4000, 2, seed=8)
        result = solve(
            instance.problem, model="streaming", seed=8, **fast_params(sample_size=300)
        )
        assert 0 < result.resources.space_peak_items < 4000
        assert result.resources.space_peak_bits == result.resources.space_peak_items * instance.problem.bit_size()

    def test_space_grows_with_r_decrease(self):
        """Smaller r needs bigger samples (the pass/space trade-off)."""
        instance = random_polytope_lp(2500, 2, seed=9)
        small_sample = solve(
            instance.problem,
            model="streaming",
            seed=9,
            **fast_params(r=3, sample_size=200),
        )
        large_sample = solve(
            instance.problem,
            model="streaming",
            seed=9,
            **fast_params(r=1, sample_size=1200),
        )
        assert large_sample.resources.space_peak_items > small_sample.resources.space_peak_items

    def test_small_problem_single_pass(self):
        problem = random_feasible_lp(60, 2, seed=10).problem
        result = solve(problem, model="streaming", r=2, seed=10)
        assert result.resources.passes == 1
        assert result.resources.space_peak_items == 60

    def test_metadata_records_parameters(self):
        instance = random_polytope_lp(1500, 2, seed=11)
        result = solve(
            instance.problem, model="streaming", seed=11, **fast_params(r=3)
        )
        assert result.metadata["algorithm"] == "streaming_clarkson"
        assert result.metadata["r"] == 3
        assert result.metadata["sample_size"] > 0


class TestTraceConsistency:
    def test_trace_matches_iterations_and_final_state(self):
        instance = random_polytope_lp(1500, 2, seed=12)
        result = solve(instance.problem, model="streaming", seed=12, **fast_params())
        assert len(result.trace) == result.iterations
        assert result.trace[-1].num_violators == 0
        successful = sum(1 for rec in result.trace if rec.successful and rec.num_violators > 0)
        assert successful == result.successful_iterations

    def test_keep_trace_disabled(self):
        instance = random_polytope_lp(1200, 2, seed=13)
        result = solve(
            instance.problem,
            model="streaming",
            r=2,
            sample_size=400,
            success_threshold=0.02,
            keep_trace=False,
            max_iterations=500,
            seed=13,
        )
        assert result.trace == []


class TestTransportLifecycle:
    def test_whole_stream_path_closes_its_private_pool(self, monkeypatch):
        """The ``sample_size >= n`` path tears down a run-private pool too.

        ``repro.solve`` runs inside a session that owns the pool, so the
        model's runner is called directly here: that is where a driver
        resolves, and must close, a dedicated ``reuse_pool=False`` pool.
        """
        import multiprocessing

        from repro import TransportConfig
        from repro.algorithms import streaming_clarkson
        from repro.api.config import StreamingConfig
        from repro.api.registry import get_model
        from repro.core.exceptions import CommunicationError

        resolved = []
        workers = set()

        def recording_resolve(config):
            # Start the pool's workers up front (the whole-stream path may
            # never touch them) so that closing the pool has workers to stop.
            before = set(multiprocessing.active_children())
            transport = real_resolve(config)
            transport.warm_up()
            workers.update(set(multiprocessing.active_children()) - before)
            resolved.append(transport)
            return transport

        real_resolve = streaming_clarkson.resolve_transport
        monkeypatch.setattr(streaming_clarkson, "resolve_transport", recording_resolve)
        problem = random_feasible_lp(30, 2, seed=3).problem
        config = StreamingConfig(
            seed=3,
            transport=TransportConfig(kind="process", max_workers=1, reuse_pool=False),
        )
        result = get_model("streaming").runner(problem, config)
        assert result.resources.passes == 1  # the whole-stream path ran
        (transport,) = resolved
        assert transport.private
        try:
            assert workers, "the pool started no worker process"
            alive = [worker for worker in workers if worker.is_alive()]
            assert alive == [], "the run left its private pool's workers running"
            with pytest.raises(CommunicationError, match="closed"):
                transport.init_node("after-the-run", 0, {})
        finally:
            transport.close()
