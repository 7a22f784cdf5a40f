"""Tests for the fabric topologies: star, tree, grid, and stream accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CoordinatorConfig, solve
from repro.core.accounting import BitCostModel
from repro.core.budget import ResourceBudget, metered
from repro.core.exceptions import BudgetExceededError, CommunicationError
from repro.fabric.payload import Scalar, StatsBlock, Vector
from repro.resilience.faults import FaultPlan, FaultSpec, fault_injection
from repro.fabric.topology import GridTopology, StarTopology, StreamTopology, TreeTopology
from repro.workloads import random_feasible_lp

COST = BitCostModel()


class TestStarTopology:
    def test_exchange_is_one_round_with_split_directions(self):
        star = StarTopology(3)
        star.begin_round()
        star.broadcast_down(Scalar(1.0))
        star.gather_up([Scalar(float(i)) for i in range(3)], combinable=True)
        star.end_round()
        assert star.rounds == 1
        per_message = COST.coefficients(1)
        assert star.ledger.total("bits_down") == 3 * per_message
        assert star.ledger.total("bits_up") == 3 * per_message
        # The hub both sends and receives 3 messages: its load dominates.
        assert star.max_load_bits == 3 * per_message

    def test_messages_outside_round_rejected(self):
        star = StarTopology(2)
        with pytest.raises(CommunicationError):
            star.send_down(0, Scalar(1.0))

    def test_unknown_site_rejected(self):
        star = StarTopology(2)
        star.begin_round()
        with pytest.raises(CommunicationError):
            star.send_up(5, Scalar(1.0))


class TestTreeTopology:
    def test_rounds_scale_with_depth(self):
        k, fanout = 8, 2
        star, tree = StarTopology(k), TreeTopology(k, fanout=fanout)
        for topo in (star, tree):
            topo.begin_round()
            topo.broadcast_down(Scalar(1.0))
            topo.gather_up([Scalar(1.0)] * k, combinable=True)
            topo.end_round()
        assert star.rounds == 1
        assert tree.rounds > star.rounds  # one round per level, both directions

    def test_combinable_gather_shrinks_hub_load(self):
        k = 16
        payloads = [Vector(np.zeros(4)) for _ in range(k)]
        star, tree = StarTopology(k), TreeTopology(k, fanout=2)
        star.begin_round()
        star.gather_up(payloads, combinable=True)
        star.end_round()
        tree.begin_round()
        tree.gather_up([Vector(np.zeros(4)) for _ in range(k)], combinable=True)
        tree.end_round()
        per_payload = COST.coefficients(4)
        assert star.max_load_bits == k * per_payload
        # The hub receives one combined message; interior nodes at most
        # fanout of them.
        assert tree.max_load_bits <= 2 * per_payload
        assert tree.max_load_bits < star.max_load_bits

    def test_non_combinable_gather_forwards_subtrees(self):
        k = 4
        tree = TreeTopology(k, fanout=2)
        tree.begin_round()
        tree.gather_up([Scalar(1.0)] * k, combinable=False)
        tree.end_round()
        # Every site's payload crosses one edge per level on its path, so the
        # total exceeds the star's k messages.
        assert tree.total_bits > k * COST.coefficients(1)

    def test_broadcast_charges_each_edge_once(self):
        k = 7
        tree = TreeTopology(k, fanout=2)
        tree.begin_round()
        tree.broadcast_down(Scalar(1.0))
        tree.end_round()
        # k - 1 tree edges plus the hub -> root edge.
        assert tree.total_bits == k * COST.coefficients(1)

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            TreeTopology(4, fanout=1)


class TestGridTopology:
    def test_load_is_max_sent_or_received(self):
        grid = GridTopology(3)
        grid.begin_round()
        grid.send(0, 1, Vector(np.zeros(2)))
        grid.send(2, 1, Vector(np.zeros(3)))
        grid.end_round()
        assert grid.max_load_bits == COST.coefficients(5)  # machine 1 received
        assert grid.total_bits == COST.coefficients(5)

    def test_send_outside_round_rejected(self):
        grid = GridTopology(2)
        with pytest.raises(CommunicationError):
            grid.send(0, 1, Scalar(1.0))

    def test_broadcast_tree_round_count(self):
        grid = GridTopology(9)
        rounds = grid.broadcast_tree(0, Scalar(1.0), fanout=3)
        assert rounds == 2  # 1 -> 4 -> 9 informed machines
        assert grid.rounds == 2
        assert grid.total_bits == 8 * COST.coefficients(1)

    def test_aggregate_tree_combines(self):
        grid = GridTopology(5)
        rounds, total = grid.aggregate_tree(
            0, Scalar(1.0), fanout=2, values=[1, 2, 3, 4, 5], combine=lambda a, b: a + b
        )
        assert total == 15
        assert rounds >= 2


class _SendPerEdgeGrid(GridTopology):
    """Reference grid whose collectives measure the payload on every edge,
    exactly as one :meth:`GridTopology.send` per edge would."""

    def _send_measured(self, source, destination, payload, bits):
        return super()._send_measured(source, destination, payload, self.measure(payload))


def _counting_measures(grid):
    calls = []
    measure = grid.measure

    def counted(payload):
        calls.append(payload)
        return measure(payload)

    grid.measure = counted
    return calls


def _run_collectives(grid, fanout):
    k = grid.num_machines
    grid.broadcast_tree(0, Vector(np.arange(7.0)), fanout)
    _, total = grid.aggregate_tree(
        0, Scalar(0.0), fanout, values=list(range(k)), combine=lambda a, b: a + b
    )
    # A root outside the first group adds the final-holder hop.
    _, stats = grid.aggregate_tree(
        k - 1, StatsBlock(np.zeros(2)), fanout, values=[(1.0, 1)] * k,
        combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    )
    return total, stats


class TestMeasureOnceCollectives:
    """Collectives measure their payload once and charge that size per edge."""

    @pytest.mark.parametrize("k, fanout", [(1, 2), (2, 2), (9, 3), (23, 4), (224, 15)])
    def test_charges_equal_one_send_per_edge(self, k, fanout):
        grids = GridTopology(k), _SendPerEdgeGrid(k)
        measures = [_counting_measures(grid) for grid in grids]
        outcomes = [_run_collectives(grid, fanout) for grid in grids]
        once, per_edge = grids
        assert outcomes[0] == outcomes[1] == (k * (k - 1) // 2, (float(k), k))
        assert once.ledger.as_table() == per_edge.ledger.as_table()
        for currency in ("rounds", "total_bits", "max_message_bits", "max_load_bits"):
            assert getattr(once, currency) == getattr(per_edge, currency), currency
        assert len(measures[0]) == 3  # one per collective ...
        assert len(measures[1]) == 3 + 3 * (k - 1)  # ... instead of one per edge

    def test_bits_budget_trips_inside_the_collective(self):
        tripped = []
        for grid in (GridTopology(23), _SendPerEdgeGrid(23)):
            edge_bits = grid.measure(Vector(np.arange(7.0)))
            budget = ResourceBudget(communication_bits=10 * edge_bits + 1)
            with metered(budget) as meter:
                with pytest.raises(BudgetExceededError):
                    grid.broadcast_tree(0, Vector(np.arange(7.0)), fanout=4)
            tripped.append((meter.communication_bits, grid.total_bits))
        # Both trip on the eleventh edge, with the same bits charged.
        assert tripped[0] == tripped[1]
        assert tripped[0][0] == 11 * edge_bits

    def test_fault_plan_sees_one_delivery_per_edge(self):
        plan = FaultPlan([FaultSpec("message_delay", at=1, count=10**6)])
        grid = GridTopology(23)
        with fault_injection(plan):
            grid.broadcast_tree(0, Vector(np.arange(7.0)), fanout=4)
            grid.aggregate_tree(0, Scalar(0.0), fanout=4)
        delivered = [fired for fired in plan.fired if fired[0] == "deliver"]
        assert len(delivered) == 2 * 22


class TestStreamTopology:
    def test_pass_accounting(self):
        stream = StreamTopology(10)
        assert stream.passes == 0
        stream.record_pass()
        stream.record_pass()
        assert stream.passes == 2
        assert stream.total_bits == 0
        assert stream.ledger.total("items") == 20

    def test_order_validation(self):
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1])
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1, 1])

    def test_iter_chunks_preserves_order(self):
        order = np.array([4, 2, 0, 3, 1])
        chunks = list(StreamTopology.iter_chunks(order, 2))
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert np.array_equal(np.concatenate(chunks), order)


class TestCoordinatorTopologyChoice:
    """The same coordinator driver runs on star and tree topologies."""

    @pytest.fixture(scope="class")
    def problem(self):
        return random_feasible_lp(900, 2, seed=21).problem

    def test_star_and_tree_agree_on_the_optimum(self, problem):
        exact = problem.solve()
        star = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(problem, num_sites=8, seed=5),
        )
        tree = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(
                problem, num_sites=8, seed=5, topology="tree", fanout=2
            ),
        )
        for result in (star, tree):
            assert result.value.objective == pytest.approx(
                exact.value.objective, rel=1e-6
            )
        assert star.metadata["topology"] == "star"
        assert tree.metadata["topology"] == "tree"

    def test_tree_trades_rounds_for_hub_load(self, problem):
        star = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(problem, num_sites=16, seed=5),
        )
        tree = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(
                problem, num_sites=16, seed=5, topology="tree", fanout=2
            ),
        )
        # The tree pays rounds (one per level) and forwarding bits ...
        assert tree.resources.rounds > star.resources.rounds
        assert (
            tree.resources.total_communication_bits
            > star.resources.total_communication_bits
        )
        # ... and wins on combinable gathers: the lightest upstream exchange
        # reaches the hub as one combined message instead of k replies.
        star_min_up = min(
            r["bits_up"] for r in star.resources.per_round if r["bits_up"]
        )
        tree_min_up = min(
            r["bits_up"] for r in tree.resources.per_round if r["bits_up"]
        )
        assert tree_min_up < star_min_up

    def test_per_round_trace_is_surfaced(self, problem):
        result = solve(problem, model="coordinator", num_sites=4, seed=3)
        comm = result.communication
        assert comm.rounds == result.resources.rounds == len(comm.per_round)
        assert comm.total_bits == sum(r["bits"] for r in comm.per_round)
        assert comm.max_load_bits == max(r["load"] for r in comm.per_round)

    def test_streaming_communication_reports_passes(self, problem):
        result = solve(problem, model="streaming", seed=3)
        comm = result.communication
        assert comm.rounds == result.resources.passes
        assert comm.total_bits == 0
        assert len(comm.per_round) == result.resources.passes
