"""Distributed (local-information) construction substrate (paper §4.1, Figure 7).

The paper's property P4 says each node can decide its role using only its own
GPS position and messages to immediate neighbours.  This package simulates
that algorithm faithfully as a synchronous message-passing computation:

* :mod:`repro.distributed.messages` — message records.
* :mod:`repro.distributed.network` — a synchronous-round message-passing
  simulator with per-round delivery and message/round accounting.
* :mod:`repro.distributed.leader_election` — leader election on the complete
  graph formed by the nodes of one region (the paper cites Singh's
  complete-network election; any deterministic rule works, we use
  lowest-key-wins on (squared distance to the anchor, node id)).
* :mod:`repro.distributed.construct` — the four-step algorithm of Figure 7
  (tile identification, region identification, leader election, handshake
  connection), producing the same overlay as the centralized builder, which
  the integration tests verify.
* :mod:`repro.distributed.repair` — the diff-driven repair engine: given the
  dirty-id stream of a dynamic deployment, re-runs election/classification
  (:func:`repro.core.goodness.decide_tiles`) only in the tiles the diff
  touched and splices the overlay edges of the
  affected tile pairs, equal to a from-scratch ``distributed_build`` at a
  cost proportional to the diff.
"""

from repro._exports import lazy_exports

__all__ = [
    "Message",
    "MessageNetwork",
    "NetworkStats",
    "elect_leader_distributed",
    "DistributedBuildResult",
    "distributed_build",
    "DistributedRepairEngine",
    "RepairReport",
    "repair_build",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.distributed.construct": ("DistributedBuildResult", "distributed_build"),
    "repro.distributed.leader_election": ("elect_leader_distributed",),
    "repro.distributed.messages": ("Message",),
    "repro.distributed.network": ("MessageNetwork", "NetworkStats"),
    "repro.distributed.repair": ("DistributedRepairEngine", "RepairReport", "repair_build"),
})
