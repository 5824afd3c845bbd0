"""Shared graph metrics used across experiments.

Covers the quantities the paper's properties talk about: degree statistics
(P1 sparsity), connected components and the largest-component fraction
(giant-component existence), hop distances and Euclidean path lengths
(the ingredients of the distance-stretch measurements, P2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

import numpy as np

from repro.graphs.base import GeometricGraph

if TYPE_CHECKING:
    from scipy.sparse import coo_matrix

__all__ = [
    "GraphSummary",
    "degree_statistics",
    "component_labels",
    "component_sizes",
    "largest_component_fraction",
    "largest_component_nodes",
    "shortest_path_hops",
    "shortest_path_euclidean",
    "euclidean_path_length",
    "graph_summary",
]


def _adjacency_matrix(graph: GeometricGraph, weighted: bool) -> coo_matrix:
    from scipy.sparse import coo_matrix

    n = graph.n_nodes
    if graph.n_edges == 0:
        return coo_matrix((n, n))
    weights = graph.edge_lengths() if weighted else np.ones(graph.n_edges)
    rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    data = np.concatenate([weights, weights])
    return coo_matrix((data, (rows, cols)), shape=(n, n))


def degree_statistics(graph: GeometricGraph) -> Dict[str, float]:
    """Degree summary: min/max/mean degree and the fraction of isolated nodes."""
    deg = graph.degrees()
    if deg.size == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "isolated_fraction": 0.0}
    return {
        "min": float(deg.min()),
        "max": float(deg.max()),
        "mean": float(deg.mean()),
        "isolated_fraction": float(np.mean(deg == 0)),
    }


def component_labels(graph: GeometricGraph) -> np.ndarray:
    """Connected-component label of every node."""
    if graph.n_nodes == 0:
        return np.zeros(0, dtype=np.int64)
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(_adjacency_matrix(graph, weighted=False), directed=False)
    return labels.astype(np.int64)


def component_sizes(graph: GeometricGraph) -> np.ndarray:
    """Sizes of all connected components, sorted descending."""
    labels = component_labels(graph)
    if labels.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.sort(np.bincount(labels))[::-1]


def largest_component_fraction(graph: GeometricGraph) -> float:
    """Fraction of nodes in the largest connected component."""
    sizes = component_sizes(graph)
    if sizes.size == 0:
        return 0.0
    return float(sizes[0]) / graph.n_nodes


def largest_component_nodes(graph: GeometricGraph) -> np.ndarray:
    """Node indices of the largest connected component."""
    labels = component_labels(graph)
    if labels.size == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.bincount(labels)
    return np.nonzero(labels == int(np.argmax(counts)))[0]


def shortest_path_hops(graph: GeometricGraph, sources: Sequence[int] | None = None) -> np.ndarray:
    """Hop-count shortest path distances.

    Returns an ``(s, n)`` matrix of hop counts from each source (or from all
    nodes when ``sources`` is ``None``); unreachable pairs are ``inf``.
    """
    from scipy.sparse.csgraph import dijkstra, shortest_path

    adj = _adjacency_matrix(graph, weighted=False)
    if sources is None:
        return shortest_path(adj, method="D", unweighted=True, directed=False)
    indices = np.asarray(list(sources), dtype=np.int64)
    return dijkstra(adj, directed=False, indices=indices, unweighted=True)


def shortest_path_euclidean(graph: GeometricGraph, sources: Sequence[int] | None = None) -> np.ndarray:
    """Shortest path distances using Euclidean edge lengths as weights."""
    from scipy.sparse.csgraph import dijkstra, shortest_path

    adj = _adjacency_matrix(graph, weighted=True)
    if sources is None:
        return shortest_path(adj, method="D", directed=False)
    indices = np.asarray(list(sources), dtype=np.int64)
    return dijkstra(adj, directed=False, indices=indices)


def euclidean_path_length(graph: GeometricGraph, path: Sequence[int]) -> float:
    """Total Euclidean length of a node-index path."""
    nodes = np.asarray(list(path), dtype=np.int64)
    if nodes.size < 2:
        return 0.0
    diffs = graph.points[nodes[1:]] - graph.points[nodes[:-1]]
    return float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs)).sum())


@dataclass(frozen=True)
class GraphSummary:
    """Headline metrics of a geometric graph, used in experiment tables."""

    name: str
    n_nodes: int
    n_edges: int
    max_degree: int
    mean_degree: float
    largest_component_fraction: float
    total_edge_length: float


def graph_summary(graph: GeometricGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for a graph."""
    deg = degree_statistics(graph)
    return GraphSummary(
        name=graph.name,
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        max_degree=int(deg["max"]),
        mean_degree=deg["mean"],
        largest_component_fraction=largest_component_fraction(graph),
        total_edge_length=float(graph.edge_lengths().sum()),
    )
