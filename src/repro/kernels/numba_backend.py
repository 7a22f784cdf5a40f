"""Optional ``numba`` backend: JIT-compiled fused loops.

Auto-detected at import time; when numba is not importable (it is an
optional accelerator, never a dependency) :data:`NUMBA_AVAILABLE` is
``False``, the backend is simply not registered, and resolution falls back
to the guaranteed ``numpy`` reference.  The kernels are straightforward
single-pass loops — the violation sweep fuses score evaluation, masking,
and both weight accumulations into one traversal with no temporaries at
all.  Sampling-side kernels and the batched solves delegate to the blocked
NumPy implementations (LAPACK is already the right tool there).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import SweepStats, select
from .fused import FusedBackend

__all__ = ["NUMBA_AVAILABLE", "NumbaBackend"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - the expected path in the pinned env
    njit = None
    NUMBA_AVAILABLE = False


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _sweep_loop(rows, rhs, limit, sense, vec, offset, weights, use_weights):
        n, d = rows.shape
        mask = np.zeros(n, dtype=np.bool_)
        count = 0
        violated = 0.0
        total = 0.0
        for j in range(n):
            acc = 0.0
            for k in range(d):
                acc += rows[j, k] * vec[k]
            score = acc + (offset - rhs[j])
            if sense < 0:
                score = -score
            score -= limit[j]
            w = weights[j] if use_weights else 1.0
            total += w
            if score > 0.0:
                mask[j] = True
                count += 1
                violated += w
        return mask, count, violated, total

    @njit(cache=True)
    def _scores_loop(rows, rhs, limit, sense, vec, offset):
        n, d = rows.shape
        out = np.empty(n, dtype=np.float64)
        for j in range(n):
            acc = 0.0
            for k in range(d):
                acc += rows[j, k] * vec[k]
            score = acc + (offset - rhs[j])
            if sense < 0:
                score = -score
            out[j] = score - limit[j]
        return out

    @njit(cache=True)
    def _count_loop(rows, rhs, limit, sense, vecs, offsets):
        n, d = rows.shape
        w = vecs.shape[1]
        counts = np.zeros(n, dtype=np.int64)
        for j in range(n):
            for t in range(w):
                acc = 0.0
                for k in range(d):
                    acc += rows[j, k] * vecs[k, t]
                margin = acc + (offsets[t] - rhs[j])
                if sense < 0:
                    margin = -margin
                if margin > limit[j]:
                    counts[j] += 1
        return counts

    @njit(cache=True)
    def _first_violator_loop(a, b, x, eps):
        n, d = a.shape
        for j in range(n):
            acc = 0.0
            for k in range(d):
                acc += a[j, k] * x[k]
            if acc - b[j] > eps:
                return j
        return -1


class NumbaBackend(FusedBackend):  # pragma: no cover - optional accelerator
    """JIT loops for the pack primitives; everything else inherits ``fused``."""

    def __init__(self) -> None:
        super().__init__(name="numba", use_float32=False)
        if not NUMBA_AVAILABLE:
            raise RuntimeError("numba is not importable in this environment")

    @staticmethod
    def _gathered(pack: Any, sel):
        rows = np.ascontiguousarray(select(pack.rows, sel))
        rhs = np.ascontiguousarray(select(pack.rhs, sel))
        limit = np.ascontiguousarray(select(pack.limit, sel))
        return rows, rhs, limit

    def scores(self, pack: Any, encoded: tuple[np.ndarray, float], sel) -> np.ndarray:
        vec, offset = encoded
        rows, rhs, limit = self._gathered(pack, sel)
        return _scores_loop(
            rows, rhs, limit, pack.sense, np.asarray(vec, dtype=np.float64), float(offset)
        )

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
        vec, offset = encoded
        if log_weights is not None:
            weights = np.exp(log_weights - log_shift)
        rows, rhs, limit = self._gathered(pack, sel)
        use_weights = weights is not None
        w = weights if use_weights else np.empty(0, dtype=np.float64)
        mask, count, violated, total = _sweep_loop(
            rows,
            rhs,
            limit,
            pack.sense,
            np.asarray(vec, dtype=np.float64),
            float(offset),
            np.ascontiguousarray(w, dtype=np.float64),
            use_weights,
        )
        return SweepStats(
            mask=mask,
            count=int(count),
            violated_weight=float(violated),
            total_weight=float(total) if need_total else None,
        )

    def masked_sum(self, weights: np.ndarray, mask: np.ndarray) -> float:
        # The JIT sweep adds violated weights one by one in row order, which
        # is exactly what a cumulative sum does.
        chosen = np.asarray(weights, dtype=np.float64)[mask]
        return float(np.cumsum(chosen)[-1]) if chosen.size else 0.0

    def count_matrix(
        self, pack: Any, vecs: np.ndarray, offsets: np.ndarray, sel
    ) -> np.ndarray:
        rows, rhs, limit = self._gathered(pack, sel)
        return _count_loop(
            rows,
            rhs,
            limit,
            pack.sense,
            np.ascontiguousarray(vecs, dtype=np.float64),
            np.ascontiguousarray(offsets, dtype=np.float64),
        )

    def first_violator(
        self, a: np.ndarray, b: np.ndarray, x: np.ndarray, eps: float
    ) -> Optional[int]:
        if a.shape[0] == 0:
            return None
        hit = _first_violator_loop(
            np.ascontiguousarray(a),
            np.ascontiguousarray(b),
            np.ascontiguousarray(x, dtype=np.float64),
            float(eps),
        )
        return None if hit < 0 else int(hit)
