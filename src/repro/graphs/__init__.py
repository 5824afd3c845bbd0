"""Geometric random graph substrate.

The paper builds its overlays on two base interconnection structures:

* ``UDG(2, λ)`` — the unit disk graph on a Poisson point process
  (:func:`repro.graphs.udg.build_udg`).
* ``NN(2, k)`` — the undirected k-nearest-neighbour graph
  (:func:`repro.graphs.knn.build_knn`).

Alongside the base structures this package implements the classical
topology-control baselines the paper's introduction contrasts against
(spanners that keep *every* node connected): Gabriel graph, relative
neighbourhood graph, Yao graph and the Euclidean minimum spanning tree
(:mod:`repro.graphs.spanners`), plus shared graph metrics
(:mod:`repro.graphs.metrics`).

All builders return a :class:`GeometricGraph`, a light wrapper around a node
coordinate array and an edge list that converts to ``networkx`` on demand.
"""

from repro._exports import lazy_exports

__all__ = [
    "GeometricGraph",
    "build_udg",
    "udg_edges",
    "build_knn",
    "knn_edges",
    "knn_neighbour_indices",
    "build_gabriel_graph",
    "build_relative_neighbourhood_graph",
    "build_yao_graph",
    "build_euclidean_mst",
    "GraphSummary",
    "graph_summary",
    "degree_statistics",
    "component_sizes",
    "largest_component_fraction",
    "shortest_path_hops",
    "euclidean_path_length",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graphs.base": ("GeometricGraph",),
    "repro.graphs.knn": ("build_knn", "knn_edges", "knn_neighbour_indices"),
    "repro.graphs.metrics": (
        "GraphSummary",
        "component_sizes",
        "degree_statistics",
        "euclidean_path_length",
        "graph_summary",
        "largest_component_fraction",
        "shortest_path_hops",
    ),
    "repro.graphs.spanners": (
        "build_euclidean_mst",
        "build_gabriel_graph",
        "build_relative_neighbourhood_graph",
        "build_yao_graph",
    ),
    "repro.graphs.udg": ("build_udg", "udg_edges"),
})
