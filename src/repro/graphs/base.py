"""Shared geometric-graph container.

A :class:`GeometricGraph` stores node coordinates as an ``(n, 2)`` float
array and edges as an ``(m, 2)`` integer array of node indices.  Keeping the
representation array-based keeps the builders vectorised; conversion to
``networkx`` is provided for algorithms (shortest paths, components) where
the networkx implementation is the clearest correct choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple

import numpy as np

from repro.geometry.primitives import as_points
from repro.kernels import ops as kernel_ops

__all__ = ["GeometricGraph", "csr_adjacency"]


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


def csr_adjacency(edges: np.ndarray, n_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices)`` of canonical ``edges`` over ``n_nodes`` nodes.

    Node ``v``'s neighbours, ascending, are ``indices[indptr[v]:indptr[v + 1]]``.
    ``edges`` must be canonical (every row ``a < b``, rows lexicographic).
    Then the reversed rows, taken first, list each node's smaller neighbours
    in ascending order and the rows themselves its larger ones, so one stable
    sort on the source id yields ascending rows.
    """
    src = np.concatenate([edges[:, 1], edges[:, 0]])
    dst = np.concatenate([edges[:, 0], edges[:, 1]])
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


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
    _csr: Tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

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

    def _adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cached, read-only CSR adjacency (see :func:`csr_adjacency`)."""
        if self._csr is None:
            indptr, indices = csr_adjacency(self.edges, self.n_nodes)
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

    def neighbours(self, node: int) -> np.ndarray:
        """Sorted neighbour indices of ``node`` (a read-only view of the cached CSR)."""
        node = int(node)
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} is not in the graph")
        indptr, indices = self._adjacency()
        return indices[indptr[node] : indptr[node + 1]]

    def has_edge(self, a: int, b: int) -> bool:
        row = self.neighbours(a)
        at = int(np.searchsorted(row, int(b)))
        return at < len(row) and int(row[at]) == int(b)

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
