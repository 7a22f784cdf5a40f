"""Peak-memory accounting for multi-pass streaming algorithms.

Pass accounting (and the per-pass ledger surfaced through
``SolveResult.communication``) lives in
:class:`repro.fabric.topology.StreamTopology`; memory is accounted
separately through a :class:`StreamingMemory` tracker: the algorithm reports
what it currently stores (in items and in bits) and the tracker keeps the
peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.accounting import CostMeter

__all__ = ["StreamingMemory"]


@dataclass
class StreamingMemory:
    """Peak-memory tracker for a streaming algorithm.

    The driver reports its currently stored items / bits; the tracker records
    the peak footprint, which is the quantity Theorem 1 bounds.
    """

    items: CostMeter = field(default_factory=lambda: CostMeter("items"))
    bits: CostMeter = field(default_factory=lambda: CostMeter("bits"))

    def set_usage(self, items: int, bits: int) -> None:
        """Report the current memory footprint."""
        self.items.set_level(items)
        self.bits.set_level(bits)

    @property
    def peak_items(self) -> int:
        return self.items.peak

    @property
    def peak_bits(self) -> int:
        return self.bits.peak
