"""Routing substrate (paper §4.2, Figure 9).

* :mod:`repro.routing.mesh` — the Angel-et-al routing algorithm on the
  percolated mesh: follow the canonical x–y path; when the next site is
  closed, run a (distributed) BFS over open sites to find the next open site
  on the remaining x–y path.  Probe counts are tracked so that the constant
  expected-overhead claim can be measured (experiment E07).
* :mod:`repro.routing.overlay` — lift mesh routes onto the SENS overlay
  (representatives act as lattice sites, relays realise the edges) and
  account for hops, Euclidean length and transmit power.
* :mod:`repro.routing.baselines` — the global shortest-path reference.
"""

from repro._exports import lazy_exports

__all__ = [
    "MeshRouteResult",
    "route_xy_mesh",
    "OverlayRouteResult",
    "route_on_overlay",
    "shortest_path_route",
    "GreedyRouteResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.routing.baselines": (
        "shortest_path_route",
        "GreedyRouteResult",
    ),
    "repro.routing.mesh": ("MeshRouteResult", "route_xy_mesh"),
    "repro.routing.overlay": ("OverlayRouteResult", "route_on_overlay"),
})
