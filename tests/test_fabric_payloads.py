"""Tests for the fabric payload layer: wire format and measured bit accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accounting import BitCostModel
from repro.fabric.payload import (
    BasisPayload,
    ConstraintBlock,
    Count,
    Flag,
    IndexBlock,
    Scalar,
    StatsBlock,
    Vector,
    constraint_rows,
    decode_payload,
)
from repro.workloads import random_feasible_lp

COST = BitCostModel()  # 64-bit coefficients, 32-bit counters


def roundtrip(payload):
    return decode_payload(payload.to_bytes())


class TestWireRoundtrip:
    @pytest.mark.parametrize(
        "payload",
        [
            Flag("update?", 1),
            Count(17),
            Scalar(3.25),
            Vector(values=np.array([1.0, -2.5, 3.75])),
            IndexBlock(indices=np.array([3, 1, 4, 1, 5])),
            StatsBlock(values=np.array([0.5, 2.0, 9.0])),
        ],
    )
    def test_simple_payloads(self, payload):
        restored = roundtrip(payload)
        assert type(restored) is type(payload)
        for name, value in vars(payload).items():
            other = getattr(restored, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, other)
            else:
                assert value == other

    def test_constraint_block_roundtrip_is_exact(self):
        rows = np.array([[1.5, -2.0, 0.25], [0.0, 1e-17, -3.5]])
        block = ConstraintBlock(indices=np.array([7, 42]), rows=rows)
        restored = roundtrip(block)
        assert np.array_equal(restored.indices, block.indices)
        # Bit-exact float delivery: the wire format is raw float64.
        assert restored.rows.tobytes() == rows.tobytes()

    def test_basis_payload_roundtrip(self):
        payload = BasisPayload(
            indices=np.array([1, 2, 3]),
            rows=np.arange(9, dtype=float).reshape(3, 3),
            witness=np.array([0.5, -0.5]),
            flag=1,
        )
        restored = roundtrip(payload)
        assert np.array_equal(restored.indices, payload.indices)
        assert np.array_equal(restored.rows, payload.rows)
        assert np.array_equal(restored.witness, payload.witness)
        assert restored.flag == 1


class TestMeasuredBits:
    def test_bits_are_computed_from_the_wire_content(self):
        assert Flag("x", 1).measured_bits(COST) == COST.counters(1)
        assert Count(5).measured_bits(COST) == COST.counters(1)
        assert Scalar(1.0).measured_bits(COST) == COST.coefficients(1)
        assert Vector(np.zeros(7)).measured_bits(COST) == COST.coefficients(7)
        assert IndexBlock(np.arange(9)).measured_bits(COST) == COST.counters(9)

    def test_constraint_block_charges_rows_and_identities(self):
        block = ConstraintBlock(indices=np.arange(5), rows=np.zeros((5, 4)))
        assert block.measured_bits(COST) == COST.coefficients(20) + COST.counters(5)

    def test_basis_payload_charges_rows_witness_and_flag(self):
        payload = BasisPayload(
            indices=np.arange(3), rows=np.zeros((3, 4)), witness=np.zeros(2)
        )
        expected = COST.coefficients(12 + 2) + COST.counters(3 + 1)
        assert payload.measured_bits(COST) == expected

    def test_measurement_survives_the_wire(self):
        block = ConstraintBlock(indices=np.arange(6), rows=np.ones((6, 3)))
        assert roundtrip(block).measured_bits(COST) == block.measured_bits(COST)

    def test_custom_cost_model_scales_measurement(self):
        cheap = BitCostModel(bits_per_coefficient=8, bits_per_counter=4)
        block = ConstraintBlock(indices=np.arange(2), rows=np.zeros((2, 3)))
        assert block.measured_bits(cheap) == 8 * 6 + 4 * 2


class TestConstraintRows:
    def test_rows_have_payload_width(self):
        problem = random_feasible_lp(50, 3, seed=0).problem
        rows = constraint_rows(problem, np.array([0, 7, 11]))
        assert rows.shape == (3, problem.payload_num_coefficients())
        pack = problem.constraint_pack()
        assert np.array_equal(rows[:, -1], pack.rhs[[0, 7, 11]])

    def test_empty_selection(self):
        problem = random_feasible_lp(20, 2, seed=1).problem
        assert constraint_rows(problem, np.array([], dtype=int)).shape == (
            0,
            problem.payload_num_coefficients(),
        )


class TestConstraintRowsCarryRealData:
    def test_meb_rows_are_the_packed_points(self):
        """MEB's payload width equals its pack width: the shipped rows must
        be the packed point encoding verbatim, not a truncated hybrid."""
        from repro.workloads import uniform_ball_points
        from repro.problems import MinimumEnclosingBall

        problem = MinimumEnclosingBall(uniform_ball_points(30, 3, seed=2))
        idx = np.array([0, 5, 9])
        rows = constraint_rows(problem, idx)
        pack = problem.constraint_pack()
        assert rows.shape == (3, problem.payload_num_coefficients())
        assert np.array_equal(rows, pack.rows[idx])

    def test_lp_rows_are_row_plus_rhs(self):
        problem = random_feasible_lp(40, 3, seed=3).problem
        idx = np.array([1, 2])
        rows = constraint_rows(problem, idx)
        pack = problem.constraint_pack()
        assert np.array_equal(rows[:, :-1], pack.rows[idx])
        assert np.array_equal(rows[:, -1], pack.rhs[idx])
