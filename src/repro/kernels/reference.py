"""The ``numpy`` reference backend: the pre-kernel-layer implementation.

Every primitive here reproduces, operation for operation, what the solver did
before the kernel layer existed (full-array matmuls with materialised margin
temporaries, mask-then-index-then-sum weight accumulation, per-system
``np.linalg.solve`` loops).  It is the correctness anchor the parity grid
pins the other backends against, and the guaranteed fallback when a
requested backend is unavailable.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import KernelBackend, SweepStats, _TINY_UNIFORM, select

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    name = "numpy"

    # ------------------------------------------------------------------ #
    # Constraint-pack primitives
    # ------------------------------------------------------------------ #

    def scores(self, pack: Any, encoded: tuple[np.ndarray, float], sel) -> np.ndarray:
        vec, offset = encoded
        rows = select(pack.rows, sel)
        rhs = select(pack.rhs, sel)
        limit = select(pack.limit, sel)
        margins = rows @ np.asarray(vec, dtype=np.float64) + (float(offset) - rhs)
        if pack.sense < 0:
            margins = -margins
        return margins - limit

    def sweep(
        self,
        pack: Any,
        encoded: tuple[np.ndarray, float],
        sel,
        weights: Optional[np.ndarray] = None,
        need_total: bool = True,
        log_weights: Optional[np.ndarray] = None,
        log_shift: float = 0.0,
    ) -> SweepStats:
        if log_weights is not None:
            # Historical form: materialise the max-normalised weight vector,
            # then mask-and-sum it like any explicit weight array.
            weights = np.exp(log_weights - log_shift)
        scores = self.scores(pack, encoded, sel)
        mask = scores > 0.0
        count = int(np.count_nonzero(mask))
        if weights is None:
            violated = float(count)
            total = float(mask.size) if need_total else None
        else:
            violated = self.masked_sum(weights, mask)
            total = float(weights.sum()) if need_total else None
        return SweepStats(
            mask=mask, count=count, violated_weight=violated, total_weight=total
        )

    def masked_sum(self, weights: np.ndarray, mask: np.ndarray) -> float:
        return float(weights[mask].sum())

    def count_matrix(
        self, pack: Any, vecs: np.ndarray, offsets: np.ndarray, sel
    ) -> np.ndarray:
        rows = select(pack.rows, sel)
        rhs = select(pack.rhs, sel)
        limit = select(pack.limit, sel)
        margins = rows @ vecs + (offsets[None, :] - rhs[:, None])
        if pack.sense < 0:
            margins = -margins
        return (margins > limit[:, None]).sum(axis=1).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Linear-algebra / scan primitives
    # ------------------------------------------------------------------ #

    def solve_many(self, mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        mats = np.asarray(mats, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        out = np.empty(rhs.shape, dtype=np.float64)
        for i in range(mats.shape[0]):
            out[i] = np.linalg.solve(mats[i], rhs[i])
        return out

    def first_violator(
        self, a: np.ndarray, b: np.ndarray, x: np.ndarray, eps: float
    ) -> Optional[int]:
        if a.shape[0] == 0:
            return None
        slack = a @ x - b
        violated = slack > eps
        if not violated.any():
            return None
        return int(np.argmax(violated))

    # ------------------------------------------------------------------ #
    # Sampling-side element-wise kernels
    # ------------------------------------------------------------------ #

    def gumbel_top_k(
        self, log_weights: np.ndarray, size: int, gen: np.random.Generator
    ) -> np.ndarray:
        arr = log_weights
        positive = np.flatnonzero(arr > -np.inf)
        if positive.size == 0:
            raise ValueError("total weight must be positive")
        size = min(size, positive.size)
        if size == 0:
            return np.empty(0, dtype=int)
        sub = arr[positive]
        u = np.maximum(gen.random(sub.size), _TINY_UNIFORM)
        keys = sub - np.log(-np.log(u))
        if size < positive.size:
            top = np.argpartition(keys, positive.size - size)[positive.size - size :]
        else:
            top = np.arange(positive.size)
        return np.sort(positive[top])

    def exp_shift(self, values: np.ndarray, shift: float) -> np.ndarray:
        return np.exp(values - shift)
