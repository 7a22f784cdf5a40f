"""Tests for the computation-model substrates: streaming, coordinator, MPC, partition.

Each model runs on its fabric topology: the multi-pass stream is a
:class:`StreamTopology`, the coordinator network a :class:`StarTopology`,
and the MPC cluster a :class:`GridTopology`; message sizes are measured from
the payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.accounting import BitCostModel
from repro.core.exceptions import CommunicationError
from repro.fabric.payload import Count, Scalar, Vector
from repro.fabric.topology import GridTopology, StarTopology, StreamTopology
from repro.models.partition import partition_indices
from repro.models.streaming import StreamingMemory

COST = BitCostModel()


def _scan(stream: StreamTopology, chunk_size: int = 2) -> list[int]:
    """One pass over the stream as a driver reads it: bounded chunks in order."""
    stream.record_pass()
    chunks = StreamTopology.iter_chunks(stream.order(), chunk_size)
    return [int(i) for chunk in chunks for i in chunk]


@dataclass(frozen=True)
class _NegativeBits(Scalar):
    """A payload whose measurement is broken (negative)."""

    def measured_bits(self, cost_model: BitCostModel) -> int:
        return -1


def _local_indices(state: dict) -> tuple[dict, np.ndarray]:
    return state, state["local_indices"]


class TestMultiPassStream:
    def test_scan_yields_all_items_in_order(self):
        assert _scan(StreamTopology(5)) == [0, 1, 2, 3, 4]

    def test_custom_order(self):
        assert _scan(StreamTopology(4, order=[3, 1, 0, 2])) == [3, 1, 0, 2]

    def test_pass_counter(self):
        stream = StreamTopology(3)
        assert stream.passes == 0
        _scan(stream)
        _scan(stream)
        assert stream.passes == 2

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1])
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1, 1])
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1, 5])

    def test_empty_stream(self):
        stream = StreamTopology(0)
        assert _scan(stream) == []
        assert stream.passes == 1

    def test_order_returns_copy(self):
        stream = StreamTopology(3)
        order = stream.order()
        order[0] = 99
        assert _scan(stream) == [0, 1, 2]


class TestStreamingMemory:
    def test_peak_tracking(self):
        memory = StreamingMemory()
        memory.set_usage(items=10, bits=640)
        memory.set_usage(items=4, bits=256)
        assert memory.peak_items == 10
        assert memory.peak_bits == 640


class TestCoordinatorNetwork:
    def test_round_and_bit_accounting(self):
        network = StarTopology(3)
        network.begin_round()
        network.send_down(0, Vector(np.zeros(2)))
        network.send_up(0, Scalar(1.0))
        network.end_round()
        assert network.rounds == 1
        assert network.total_bits == COST.coefficients(3)
        assert network.max_message_bits == COST.coefficients(2)
        assert network.ledger.total("bits_down") == COST.coefficients(2)
        assert network.ledger.total("bits_up") == COST.coefficients(1)

    def test_broadcast_counts_per_site(self):
        network = StarTopology(4)
        network.begin_round()
        network.broadcast_down(Vector(np.zeros(3)))
        network.end_round()
        assert network.total_bits == 4 * COST.coefficients(3)

    def test_message_outside_round_rejected(self):
        with pytest.raises(CommunicationError):
            StarTopology(3).send_down(0, Count(1))

    def test_double_begin_rejected(self):
        network = StarTopology(3)
        network.begin_round()
        with pytest.raises(CommunicationError):
            network.begin_round()

    def test_end_without_begin_rejected(self):
        with pytest.raises(CommunicationError):
            StarTopology(3).end_round()

    def test_unknown_site_rejected(self):
        network = StarTopology(2)
        network.begin_round()
        with pytest.raises(CommunicationError):
            network.send_down(5, Count(1))

    def test_negative_message_size_rejected(self):
        network = StarTopology(2)
        network.begin_round()
        with pytest.raises(ValueError):
            network.send_down(0, _NegativeBits(1.0))

    def test_sites_hold_their_indices(self):
        network = StarTopology(2)
        for site_id, local in enumerate([np.arange(0, 3), np.arange(3, 6)]):
            network.init_state(site_id, {"local_indices": local})
        assert list(network.run_on(1, _local_indices)) == [3, 4, 5]
        network.close()


class TestMPCCluster:
    def test_load_is_max_sent_or_received(self):
        cluster = GridTopology(3)
        cluster.begin_round()
        cluster.send(0, 1, Vector(np.zeros(2)))
        cluster.send(0, 2, Scalar(1.0))
        cluster.end_round()
        # Machine 0 sent three coefficients; the heaviest receiver got two.
        assert cluster.max_load_bits == COST.coefficients(3)
        assert cluster.total_bits == COST.coefficients(3)

    def test_rounds_counted(self):
        cluster = GridTopology(4)
        for _ in range(3):
            cluster.begin_round()
            cluster.send(0, 1, Count(1))
            cluster.end_round()
        assert cluster.rounds == 3

    def test_send_outside_round_rejected(self):
        with pytest.raises(CommunicationError):
            GridTopology(4).send(0, 1, Count(1))

    def test_unknown_machine_rejected(self):
        cluster = GridTopology(2)
        cluster.begin_round()
        with pytest.raises(CommunicationError):
            cluster.send(0, 9, Count(1))

    def test_broadcast_tree_reaches_everyone_with_bounded_load(self):
        cluster = GridTopology(16)
        message = Scalar(1.0)
        rounds = cluster.broadcast_tree(0, message, fanout=4)
        # 16 machines with fanout 4: 2 rounds suffice.
        assert rounds == 2
        assert cluster.rounds == 2
        # No machine ever sends more than fanout messages per round.
        assert cluster.max_load_bits <= 4 * cluster.measure(message)

    def test_broadcast_tree_single_machine_is_free(self):
        cluster = GridTopology(1)
        assert cluster.broadcast_tree(0, Scalar(1.0), fanout=2) == 0
        assert cluster.total_bits == 0

    def test_aggregate_tree_combines_values(self):
        cluster = GridTopology(9)
        values = [float(i) for i in range(9)]
        rounds, total = cluster.aggregate_tree(
            0, Scalar(0.0), 3, values=values, combine=lambda a, b: (a or 0) + (b or 0)
        )
        assert total == pytest.approx(sum(values))
        assert rounds >= 2
        assert cluster.max_load_bits <= 3 * COST.coefficients(1)

    def test_aggregate_tree_invalid_fanout(self):
        cluster = GridTopology(4)
        with pytest.raises(ValueError):
            cluster.aggregate_tree(0, Count(1), fanout=1)
        with pytest.raises(ValueError):
            cluster.broadcast_tree(0, Count(1), fanout=1)


class TestPartition:
    @pytest.mark.parametrize("method", ["round_robin", "contiguous", "random", "skewed"])
    def test_partition_is_disjoint_and_complete(self, method):
        parts = partition_indices(100, 7, method=method, seed=0)
        assert len(parts) == 7
        union = np.concatenate(parts)
        assert sorted(union.tolist()) == list(range(100))

    def test_round_robin_balance(self):
        parts = partition_indices(100, 4, method="round_robin")
        assert all(p.size == 25 for p in parts)

    def test_contiguous_blocks(self):
        parts = partition_indices(10, 2, method="contiguous")
        assert list(parts[0]) == list(range(5))
        assert list(parts[1]) == list(range(5, 10))

    def test_skewed_is_imbalanced(self):
        parts = partition_indices(2000, 8, method="skewed", seed=1, skew=4.0)
        sizes = sorted(p.size for p in parts)
        assert sizes[-1] > sizes[0]

    def test_parts_are_sorted(self):
        for method in ("round_robin", "random", "skewed"):
            for part in partition_indices(50, 5, method=method, seed=2):
                assert np.all(np.diff(part) > 0) or part.size <= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_indices(10, 0)
        with pytest.raises(ValueError):
            partition_indices(-1, 2)
        with pytest.raises(ValueError):
            partition_indices(10, 2, method="nope")
