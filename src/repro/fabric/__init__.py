"""The unified communication fabric under the streaming, coordinator, and MPC models.

One transport layer plus one topology layer replace the three hand-rolled
substrates:

* :mod:`repro.fabric.payload` — typed, serializable message payloads whose
  bit size is *measured from the serialized form*, never declared by callers;
* :mod:`repro.fabric.transport` — how node-local computation executes and how
  payloads move: :class:`InProcessTransport` (deterministic, zero-copy,
  default) and the journaled transport over remote node runtimes, whose
  :class:`ProcessPoolTransport` backend runs real multiprocess workers
  (bit-identical results to in-process);
* :mod:`repro.fabric.runtime` — the one node program every worker process
  and cluster agent runs (:class:`~repro.fabric.runtime.NodeRuntime`);
* :mod:`repro.fabric.topology` — who talks to whom and when: star and
  tree-aggregation coordinator topologies, the round-synchronous MPC grid,
  and the single-reader stream, all feeding one shared
  :class:`~repro.core.accounting.RoundLedger`.

The distributed drivers in :mod:`repro.algorithms` and the baselines
speak only to topologies — the same driver code runs unchanged on either
transport and on either coordinator topology.
"""

from .payload import (
    BasisPayload,
    ConstraintBlock,
    Count,
    Flag,
    IndexBlock,
    Payload,
    Scalar,
    StatsBlock,
    Vector,
    constraint_rows,
    decode_payload,
    encode_witness_vector,
)
from .transport import (
    InProcessTransport,
    ProcessPoolTransport,
    Transport,
    resolve_transport,
    shared_process_transport,
)
from .topology import (
    GridTopology,
    StarTopology,
    StreamTopology,
    Topology,
    TreeTopology,
)

__all__ = [
    "Payload",
    "Flag",
    "Count",
    "Scalar",
    "Vector",
    "IndexBlock",
    "ConstraintBlock",
    "BasisPayload",
    "StatsBlock",
    "decode_payload",
    "constraint_rows",
    "encode_witness_vector",
    "Transport",
    "InProcessTransport",
    "ProcessPoolTransport",
    "resolve_transport",
    "shared_process_transport",
    "Topology",
    "StarTopology",
    "TreeTopology",
    "GridTopology",
    "StreamTopology",
]
