"""Planar geometry substrate.

This package provides the low-level geometric machinery the paper's
constructions rest on:

* :mod:`repro.geometry.primitives` — points, distance kernels, discs,
  rectangles and axis-aligned windows, all vectorised over numpy arrays.
* :mod:`repro.geometry.poisson` — homogeneous Poisson point processes on
  rectangular windows (the node deployment model of the paper).
* :mod:`repro.geometry.predicates` — membership predicates for the tile
  regions (discs, annuli, lenses, intersections of disc families).
* :mod:`repro.geometry.integration` — numeric area computation for arbitrary
  predicates (uniform grid and Monte-Carlo estimators with error bounds).
* :mod:`repro.geometry.index` — the pluggable :class:`SpatialIndex` backend
  layer (vectorised uniform hash grid and cKDTree wrapper) answering
  fixed-radius neighbour queries, in bulk, in (expected) linear time.

Everything here is deterministic given a :class:`numpy.random.Generator`
seed; no global random state is used anywhere in the library.
"""

from repro._exports import lazy_exports

__all__ = [
    "Disc",
    "Rect",
    "pairwise_distances",
    "points_in_disc",
    "points_in_rect",
    "squared_distances",
    "PoissonProcess",
    "poisson_points",
    "RegionPredicate",
    "DiscPredicate",
    "AnnulusPredicate",
    "HalfPlanePredicate",
    "IntersectionPredicate",
    "UnionPredicate",
    "DifferencePredicate",
    "DiscIntersectionPredicate",
    "estimate_area_grid",
    "estimate_area_monte_carlo",
    "BACKENDS",
    "GridIndex",
    "KDTreeIndex",
    "SpatialIndex",
    "build_index",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.geometry.index": (
        "BACKENDS",
        "GridIndex",
        "KDTreeIndex",
        "SpatialIndex",
        "build_index",
    ),
    "repro.geometry.integration": ("estimate_area_grid", "estimate_area_monte_carlo"),
    "repro.geometry.poisson": ("PoissonProcess", "poisson_points"),
    "repro.geometry.predicates": (
        "AnnulusPredicate",
        "DiscIntersectionPredicate",
        "DiscPredicate",
        "HalfPlanePredicate",
        "IntersectionPredicate",
        "DifferencePredicate",
        "RegionPredicate",
        "UnionPredicate",
    ),
    "repro.geometry.primitives": (
        "Disc",
        "Rect",
        "pairwise_distances",
        "points_in_disc",
        "points_in_rect",
        "squared_distances",
    ),
})
