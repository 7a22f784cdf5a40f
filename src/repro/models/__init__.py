"""Model helpers kept beside the fabric: input partitioning and streaming memory."""

from .partition import partition_indices
from .streaming import StreamingMemory

__all__ = ["partition_indices", "StreamingMemory"]
