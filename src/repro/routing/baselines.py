"""The shortest-path routing reference.

* :func:`shortest_path_route` — the global shortest path (hops or Euclidean),
  the unattainable-with-local-information reference, reported as a
  :class:`GreedyRouteResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import networkx as nx
import numpy as np

from repro.graphs.base import GeometricGraph

__all__ = ["GreedyRouteResult", "shortest_path_route"]


@dataclass
class GreedyRouteResult:
    """Outcome of one routed source/target pair.

    Attributes
    ----------
    success: whether the target was reached.
    path: node indices visited (source first).
    hops: number of edges traversed.
    euclidean_length: total length of the traversed edges.
    stuck_at: the node the route ended at when it failed (``None`` on success).
    """

    success: bool
    path: List[int]
    hops: int
    euclidean_length: float
    stuck_at: int | None


def shortest_path_route(
    graph: GeometricGraph, source: int, target: int, weighted: bool = True
) -> GreedyRouteResult:
    """Global shortest path between two nodes (Euclidean-weighted or hop count).

    ``success`` is ``False`` when the nodes are disconnected.
    """
    g = graph.to_networkx()
    try:
        if weighted:
            path = nx.shortest_path(g, int(source), int(target), weight="length")
        else:
            path = nx.shortest_path(g, int(source), int(target))
    except nx.NetworkXNoPath:
        return GreedyRouteResult(False, [int(source)], 0, 0.0, int(source))
    pts = graph.points
    nodes = np.asarray(path, dtype=np.int64)
    seg = np.linalg.norm(np.diff(pts[nodes], axis=0), axis=1)
    return GreedyRouteResult(True, [int(p) for p in path], len(path) - 1, float(seg.sum()), None)
