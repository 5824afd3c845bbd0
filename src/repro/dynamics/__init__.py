"""repro.dynamics — mobility, churn and incremental topology maintenance.

The static library answers "what does a frozen Poisson deployment look
like?"; this subsystem answers "what happens to it over time?".

* :mod:`repro.dynamics.mobility` — seeded, vectorised mobility models
  (random waypoint, billiard random walk, drift field).
* :mod:`repro.dynamics.churn` — failure/arrival processes (i.i.d. lifetimes,
  spatially correlated outage discs) and heterogeneous radio radii.
* :mod:`repro.dynamics.incremental` — :class:`DynamicSpatialIndex`: point
  moves/inserts/deletes answered without full rebuilds (a dirty-cell
  patched grid), byte-identical to a from-scratch ``build_index``; bulk
  queries are vectorised straight off the patched cell table.
* :mod:`repro.dynamics.topology` — per-timestep UDG edge *diffs*
  (:class:`TopologyTracker`), so downstream metrics and the
  :class:`repro.distributed.repair.DistributedRepairEngine` consume deltas
  instead of recomputing graphs.
* :mod:`repro.dynamics.workloads` — the registered scenario workloads
  ``M01`` (mobility), ``M02`` (mobile distributed build through the repair
  engine), ``F01`` (failure), ``H01`` (heterogeneous radii).
* :mod:`repro.dynamics.bench` — the registered maintenance benchmarks
  ``S02`` (incremental vs rebuild-per-step) and ``S03`` (repair fast paths
  vs their naive baselines).
"""

from repro._exports import lazy_exports

__all__ = [
    "CorrelatedOutage",
    "Drift",
    "DynamicIndexStats",
    "DynamicSpatialIndex",
    "EdgeDiff",
    "LifetimeChurn",
    "MobilityModel",
    "RandomWalk",
    "RandomWaypoint",
    "TopologyTracker",
    "heterogeneous_radii",
    "reflect_into",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dynamics.churn": ("CorrelatedOutage", "LifetimeChurn", "heterogeneous_radii"),
    "repro.dynamics.incremental": ("DynamicIndexStats", "DynamicSpatialIndex"),
    "repro.dynamics.mobility": (
        "Drift",
        "MobilityModel",
        "RandomWalk",
        "RandomWaypoint",
        "reflect_into",
    ),
    "repro.dynamics.topology": ("EdgeDiff", "TopologyTracker"),
})
