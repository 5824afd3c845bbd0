"""Shared geometric-graph container.

A :class:`GeometricGraph` stores node coordinates as an ``(n, 2)`` float
array and edges as an ``(m, 2)`` integer array of node indices.  Keeping the
representation array-based keeps the builders vectorised; conversion to
``networkx`` is provided for algorithms (shortest paths, components) where
the networkx implementation is the clearest correct choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.geometry.primitives import as_points
from repro.kernels import ops as kernel_ops

__all__ = ["GeometricGraph"]


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Read-only canonical form of range-checked, loop-free int64 ``edges``.

    Builder output is canonical already — every row ``a < b``, rows strictly
    increasing in lexicographic order — and costs one O(m) check and a
    copy, so the caller's array never aliases the graph's.  Anything else
    is oriented smaller-first and spliced (sorted, duplicates dropped).
    """
    a, b = edges[:, 0], edges[:, 1]
    if bool(np.all(a < b)):
        step = np.diff(a)
        if bool(np.all(step >= 0)) and bool(np.all((step > 0) | (b[1:] > b[:-1]))):
            out = edges.copy()
            out.flags.writeable = False
            return out
    flipped = a > b
    if flipped.any():
        edges = np.where(flipped[:, None], edges[:, ::-1], edges)
    out = kernel_ops.splice_edges([edges])
    out.flags.writeable = False
    return out


@dataclass
class GeometricGraph:
    """Undirected geometric graph with embedded node positions.

    Attributes
    ----------
    points:
        ``(n, 2)`` node coordinates.
    edges:
        ``(m, 2)`` integer array of undirected edges; each row is stored with
        the smaller index first and rows are unique and sorted.  The stored
        array is the graph's own read-only copy.
    name:
        Human-readable label used in experiment tables
        (e.g. ``"UDG(2, 1.8)"`` or ``"UDG-SENS"``).
    """

    points: np.ndarray
    edges: np.ndarray
    name: str = "geometric-graph"
    _adjacency: dict[int, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.points = as_points(self.points)
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) integer array")
        n = len(self.points)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoints out of range")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed")
        self.edges = _canonical_edges(edges)

    # -- basic accessors ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        if self.n_edges:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def edge_lengths(self) -> np.ndarray:
        """Euclidean length of every edge."""
        if self.n_edges == 0:
            return np.zeros(0, dtype=np.float64)
        diff = self.points[self.edges[:, 0]] - self.points[self.edges[:, 1]]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def neighbours(self, node: int) -> np.ndarray:
        """Sorted neighbour indices of ``node`` (cached adjacency)."""
        if self._adjacency is None:
            adjacency: dict[int, list[int]] = {i: [] for i in range(self.n_nodes)}
            for a, b in self.edges:
                adjacency[int(a)].append(int(b))
                adjacency[int(b)].append(int(a))
            self._adjacency = {k: np.asarray(sorted(v), dtype=np.int64) for k, v in adjacency.items()}
        return self._adjacency[int(node)]

    def has_edge(self, a: int, b: int) -> bool:
        return int(b) in set(self.neighbours(int(a)).tolist())

    # -- conversions -----------------------------------------------------------
    def to_networkx(self):
        """Convert to :class:`networkx.Graph` with ``pos`` node attributes and
        ``length`` edge attributes."""
        import networkx as nx

        graph = nx.Graph(name=self.name)
        for i, (x, y) in enumerate(self.points):
            graph.add_node(int(i), pos=(float(x), float(y)))
        lengths = self.edge_lengths()
        for (a, b), length in zip(self.edges, lengths):
            graph.add_edge(int(a), int(b), length=float(length))
        return graph

    def subgraph(self, node_indices: Iterable[int], name: str | None = None) -> "GeometricGraph":
        """Induced subgraph on the given nodes, with nodes re-indexed 0..m-1."""
        keep = np.asarray(sorted(set(int(i) for i in node_indices)), dtype=np.int64)
        if keep.size and (keep.min() < 0 or keep.max() >= self.n_nodes):
            raise ValueError("node index out of range")
        remap = -np.ones(self.n_nodes, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        if self.n_edges:
            mask = (remap[self.edges[:, 0]] >= 0) & (remap[self.edges[:, 1]] >= 0)
            new_edges = remap[self.edges[mask]]
        else:
            new_edges = np.zeros((0, 2), dtype=np.int64)
        return GeometricGraph(self.points[keep], new_edges, name=name or f"{self.name}-sub")

    def with_name(self, name: str) -> "GeometricGraph":
        return GeometricGraph(self.points, self.edges, name=name)
