"""Baseline topology-control spanners.

The paper positions its SENS constructions against the classical
topology-control literature, whose goal is a sparse spanner that keeps
*every* node connected (Santi's and Rajaraman's surveys; the Li–Wan–Wang
power spanner).  To let the benchmarks make that comparison concrete we
implement the standard proximity-graph baselines:

* **Gabriel graph** — edge (u, v) iff the disc with diameter uv contains no
  other point; a power spanner for β ≥ 2.
* **Relative neighbourhood graph (RNG)** — edge (u, v) iff no point w is
  simultaneously closer to u and to v than they are to each other.
* **Yao graph** — each node keeps its nearest neighbour in each of ``cones``
  equal angular sectors; a distance spanner for ≥ 7 cones.
* **Euclidean MST** — the sparsest connected baseline (no stretch guarantee).

All baselines are built as *subgraphs of the supplied base graph* when a base
edge set is given (as in the topology-control setting, where only links of
the underlying UDG are usable); otherwise they are built on the complete
Euclidean graph.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import as_points, squared_distances
from repro.graphs.base import GeometricGraph
from repro.graphs.udg import udg_edges
from repro.kernels import ops as kernel_ops

__all__ = [
    "build_gabriel_graph",
    "build_relative_neighbourhood_graph",
    "build_yao_graph",
    "build_euclidean_mst",
]


def _candidate_edges(points: np.ndarray, base_edges: np.ndarray | None) -> np.ndarray:
    """Candidate edge list: the base graph's edges, or all pairs if none given."""
    n = len(points)
    if base_edges is not None:
        edges = np.asarray(base_edges, dtype=np.int64).reshape(-1, 2)
        return kernel_ops.splice_edges([np.sort(edges, axis=1)])
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    a, b = np.triu_indices(n, k=1)
    return np.column_stack([a, b]).astype(np.int64)


def build_gabriel_graph(
    points: np.ndarray, base_edges: np.ndarray | None = None, name: str = "Gabriel"
) -> GeometricGraph:
    """Gabriel graph on ``points`` (optionally restricted to ``base_edges``).

    Edge (u, v) survives iff no third point lies strictly inside the disc
    whose diameter is the segment uv, i.e. ``d(w, m)² < d(u, v)²/4`` for the
    midpoint m.
    """
    pts = as_points(points)
    cand = _candidate_edges(pts, base_edges)
    if cand.size == 0:
        return GeometricGraph(pts, cand, name=name)
    keep = np.zeros(len(cand), dtype=bool)
    for i, (u, v) in enumerate(cand):
        mid = (pts[u] + pts[v]) / 2.0
        r2 = np.sum((pts[u] - pts[v]) ** 2) / 4.0
        d2 = np.sum((pts - mid) ** 2, axis=1)
        d2[u] = np.inf
        d2[v] = np.inf
        # repro: allow[REPRO202] relative witness test, not ball membership
        keep[i] = not np.any(d2 < r2 - 1e-12)
    return GeometricGraph(pts, cand[keep], name=name)


def build_relative_neighbourhood_graph(
    points: np.ndarray, base_edges: np.ndarray | None = None, name: str = "RNG"
) -> GeometricGraph:
    """Relative neighbourhood graph on ``points``.

    Edge (u, v) survives iff there is no witness w with
    ``max(d(u, w), d(v, w)) < d(u, v)``.
    """
    pts = as_points(points)
    cand = _candidate_edges(pts, base_edges)
    if cand.size == 0:
        return GeometricGraph(pts, cand, name=name)
    keep = np.zeros(len(cand), dtype=bool)
    for i, (u, v) in enumerate(cand):
        duv2 = np.sum((pts[u] - pts[v]) ** 2)
        du2 = np.sum((pts - pts[u]) ** 2, axis=1)
        dv2 = np.sum((pts - pts[v]) ** 2, axis=1)
        # repro: allow[REPRO202] relative witness test, not ball membership
        witness = np.maximum(du2, dv2) < duv2 - 1e-12
        witness[u] = False
        witness[v] = False
        keep[i] = not np.any(witness)
    return GeometricGraph(pts, cand[keep], name=name)


def build_yao_graph(
    points: np.ndarray,
    cones: int = 8,
    radius: float | None = None,
    name: str | None = None,
) -> GeometricGraph:
    """Yao graph: each node keeps its nearest neighbour per angular cone.

    Parameters
    ----------
    points:
        Node coordinates.
    cones:
        Number of equal angular sectors per node (≥ 7 gives a spanner).
    radius:
        Optional maximum link length (restricts candidates to the UDG of that
        radius, matching the wireless setting).
    """
    if cones < 1:
        raise ValueError("cones must be positive")
    pts = as_points(points)
    n = len(pts)
    if n < 2:
        return GeometricGraph(pts, np.zeros((0, 2), dtype=np.int64), name=name or f"Yao({cones})")

    if radius is not None:
        cand = udg_edges(pts, radius)
        # Build symmetric candidate adjacency from the UDG edge list.
        neighbours: list[list[int]] = [[] for _ in range(n)]
        for a, b in cand:
            neighbours[int(a)].append(int(b))
            neighbours[int(b)].append(int(a))
    else:
        neighbours = [[j for j in range(n) if j != i] for i in range(n)]

    sector_width = 2.0 * np.pi / cones
    chosen: set[tuple[int, int]] = set()
    for i in range(n):
        nbrs = np.asarray(neighbours[i], dtype=np.int64)
        if nbrs.size == 0:
            continue
        vec = pts[nbrs] - pts[i]
        dist = np.sqrt(np.einsum("ij,ij->i", vec, vec))
        angles = np.mod(np.arctan2(vec[:, 1], vec[:, 0]), 2.0 * np.pi)
        sector = np.minimum((angles / sector_width).astype(np.int64), cones - 1)
        for s in np.unique(sector):
            in_sector = sector == s
            best = nbrs[in_sector][int(np.argmin(dist[in_sector]))]
            chosen.add((min(i, int(best)), max(i, int(best))))
    edges = np.asarray(sorted(chosen), dtype=np.int64) if chosen else np.zeros((0, 2), dtype=np.int64)
    return GeometricGraph(pts, edges, name=name or f"Yao({cones})")


def build_euclidean_mst(points: np.ndarray, name: str = "EMST") -> GeometricGraph:
    """Euclidean minimum spanning tree (via scipy's sparse-graph MST)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    pts = as_points(points)
    n = len(pts)
    if n < 2:
        return GeometricGraph(pts, np.zeros((0, 2), dtype=np.int64), name=name)
    d = np.sqrt(squared_distances(pts, pts))
    a, b = np.triu_indices(n, k=1)
    weights = d[a, b]
    graph = coo_matrix((weights, (a, b)), shape=(n, n))
    mst = minimum_spanning_tree(graph).tocoo()
    edges = np.column_stack([mst.row, mst.col]).astype(np.int64)
    return GeometricGraph(pts, edges, name=name)
