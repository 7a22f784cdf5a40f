"""Model-specific solvers: the paper's algorithms and the baselines they beat."""

from .baselines import (
    clarkson_classic_reweighting,
    exact_in_memory,
    ship_all_coordinator,
    single_pass_full_memory_streaming,
)
from .chan_chen import (
    EnvelopeLP,
    chan_chen_2d_streaming,
    chan_chen_pass_count,
    clarkson_pass_count,
)
from . import coordinator_clarkson, streaming_clarkson  # noqa: F401  (registration)
from .mpc_clarkson import machines_for_load

__all__ = [
    "clarkson_classic_reweighting",
    "exact_in_memory",
    "ship_all_coordinator",
    "single_pass_full_memory_streaming",
    "EnvelopeLP",
    "chan_chen_2d_streaming",
    "chan_chen_pass_count",
    "clarkson_pass_count",
    "machines_for_load",
]
