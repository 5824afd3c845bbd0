"""k-nearest-neighbour graph construction — the paper's ``NN(2, k)`` model.

Each point establishes undirected edges to the ``k`` points nearest to it
(Häggström–Meester model): the edge {x, y} exists when y is among x's k
nearest *or* x is among y's k nearest.  Neighbour queries go through the
:mod:`repro.geometry.index` backend layer — both backends now answer
``query_nearest`` (the KD-tree natively, the grid via expanding-ring cell
search), so the kNN builder is backend-pluggable like the UDG builder; ties
(a measure-zero event for Poisson inputs) are broken by each backend's own
rule, matching the paper's remark that any tie-breaking rule is acceptable.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.index import build_index
from repro.geometry.primitives import as_points
from repro.graphs.base import GeometricGraph
from repro.kernels import ops as kernel_ops

__all__ = ["knn_neighbour_indices", "knn_edges", "build_knn"]


def _knn_cell_size(pts: np.ndarray, k: int) -> float:
    """Grid cell size tuned to the expected kNN radius.

    For roughly uniform density ``λ ≈ n / bbox_area`` the k-th neighbour sits
    near ``sqrt((k + 1) / (π λ))``; a cell of that side keeps the expanding
    ring search to a few rings.  Correctness never depends on this choice —
    only ring count does — so degenerate bounding boxes just fall back to 1.
    """
    spans = pts.max(axis=0) - pts.min(axis=0)
    area = float(spans[0] * spans[1])
    if not np.isfinite(area) or area <= 0:
        return 1.0
    return float(np.sqrt((k + 1) * area / (np.pi * len(pts))))


def knn_neighbour_indices(points: np.ndarray, k: int, backend: str = "kdtree") -> np.ndarray:
    """Indices of the k nearest neighbours of every point.

    Returns an ``(n, k)`` integer array; row i lists the k nearest points to
    point i (excluding i itself), nearest first.  When fewer than k other
    points exist, the available neighbours are followed by ``-1`` padding.
    ``backend`` picks the spatial index (``kdtree`` default; ``grid`` uses
    the expanding-ring search with index-order tie-breaking).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    pts = as_points(points)
    n = len(pts)
    if n == 0 or k == 0:
        return np.full((n, k), -1, dtype=np.int64)
    k_eff = min(k, n - 1)
    if k_eff == 0:
        return np.full((n, k), -1, dtype=np.int64)
    index = build_index(pts, backend=backend, cell_size=_knn_cell_size(pts, k_eff))
    # Query k_eff + 1 because the nearest hit is normally the point itself.
    idx = index.query_nearest(pts, k_eff + 1)
    # A row whose nearest hit is the point itself drops column 0.  Any other
    # row (a coincident point came first) moves its own index, when present,
    # to the back and keeps the others nearest first: a stable sort of its
    # "is self" flags.
    neighbours = np.empty((n, k), dtype=np.int64)
    neighbours[:, k_eff:] = -1
    neighbours[:, :k_eff] = idx[:, 1:]
    own = np.arange(n, dtype=idx.dtype)
    rest = np.nonzero(idx[:, 0] != own)[0]
    if rest.size:
        others = idx[rest]
        is_self = others == own[rest, None]
        order = np.argsort(is_self, axis=1, kind="stable")[:, :k_eff]
        neighbours[rest, :k_eff] = np.take_along_axis(others, order, axis=1)
    return neighbours


def knn_edges(points: np.ndarray, k: int, backend: str = "kdtree") -> np.ndarray:
    """Undirected edge list of ``NN(2, k)`` on the given point set."""
    pts = as_points(points)
    # Every row holds exactly min(k, n - 1) neighbours; padding is whole columns.
    k_eff = min(k, len(pts) - 1)
    if k_eff <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    targets = knn_neighbour_indices(pts, k, backend=backend)[:, :k_eff]
    sources = np.arange(len(pts), dtype=np.int64)[:, None]
    pairs = np.empty((len(pts), k_eff, 2), dtype=np.int64)
    np.minimum(sources, targets, out=pairs[..., 0])
    np.maximum(sources, targets, out=pairs[..., 1])
    return kernel_ops.splice_edges([pairs])


def build_knn(
    points: np.ndarray, k: int, name: str | None = None, backend: str = "kdtree"
) -> GeometricGraph:
    """Build the undirected k-nearest-neighbour graph ``NN(2, k)``."""
    pts = as_points(points)
    edges = knn_edges(pts, k, backend=backend)
    return GeometricGraph(pts, edges, name=name or f"NN(k={k})")
