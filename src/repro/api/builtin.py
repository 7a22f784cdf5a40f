"""Registration of the sequential reference model.

The streaming / coordinator / MPC bindings and the baselines self-register
in their own modules (``repro.algorithms``); the sequential driver lives in
``repro.core.clarkson``, which must not import the API layer, so its
registration lives here.
"""

from __future__ import annotations

from ..core.clarkson import _clarkson_solve
from .config import SolverConfig
from .registry import register_model

register_model(
    "sequential",
    _clarkson_solve,
    config_cls=SolverConfig,
    description=(
        "In-memory Algorithm 1: Clarkson iterative reweighting with explicit "
        "weights (the ground truth the model bindings are tested against)."
    ),
    currencies=("space_peak_items",),
    capabilities=("warm_restart", "ingest"),
)
