"""Topology-as-a-service: a long-lived daemon over the incremental machinery.

``python -m repro.serve`` owns a live deployment and turns the batch
machinery — :class:`~repro.dynamics.incremental.DynamicSpatialIndex`,
:class:`~repro.dynamics.topology.TopologyTracker`,
:class:`~repro.distributed.repair.DistributedRepairEngine` — into a service:
an asyncio front-end (TCP or stdio, newline-delimited canonical JSON) ingests
streaming position/churn events (``move`` / ``insert`` / ``delete``),
coalesces them per tick into one bulk update, applies the tick through the
shared dirty-id stream, and answers queries (neighbours, overlay routes,
coverage, digests) from the maintained overlay without rebuilds.

The module split mirrors the daemon's data path:

* :mod:`repro.serve.protocol` — the wire format: request parsing and
  canonical-JSON responses.
* :mod:`repro.serve.batching` — bounded pending queue (explicit
  backpressure past the high-water mark) and the per-tick coalescer whose
  output is provably equivalent to applying the accepted events one by one.
* :mod:`repro.serve.world` — :class:`~repro.serve.world.LiveWorld`, the
  served state: index + UDG tracker + repair engine behind one apply/query
  surface, plus the canonical state/digest used by every certificate.
* :mod:`repro.serve.snapshot` — snapshot/restore of a live world through the
  :class:`~repro.runner.store.ResultStore` canonical-JSON machinery, so a
  killed daemon resumes byte-identically.
* :mod:`repro.serve.metrics` — injected-clock latency recorder
  (ingest→applied p50/p99, sustained events/s) behind the S05 benchmark.
* :mod:`repro.serve.server` — the tick scheduler and the two transports.
* :mod:`repro.serve.clock` — the sanctioned clock access (REPRO301's
  allowlisted module; everything else injects ``now``).

The safety story is the equivalence certificate: a served event stream leaves
the world byte-identical to applying the same events through the batch
``TopologyTracker``/repair path (property-tested over random interleavings,
asserted by the S05 benchmark and the CI serve-smoke).
"""

from repro._exports import lazy_exports

__all__ = [
    "CoalescedBatch",
    "TickBatcher",
    "coalesce_events",
    "LatencyRecorder",
    "ProtocolError",
    "Request",
    "parse_line",
    "ServeSession",
    "latest_snapshot",
    "restore_world",
    "save_snapshot",
    "LiveWorld",
    "WorldConfig",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.batching": ("CoalescedBatch", "TickBatcher", "coalesce_events"),
    "repro.serve.metrics": ("LatencyRecorder",),
    "repro.serve.protocol": ("ProtocolError", "Request", "parse_line"),
    "repro.serve.server": ("ServeSession",),
    "repro.serve.snapshot": ("latest_snapshot", "restore_world", "save_snapshot"),
    "repro.serve.world": ("LiveWorld", "WorldConfig"),
})
