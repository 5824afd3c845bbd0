"""Region predicates.

The SENS constructions carve each tile into *regions* (the representative
region ``C0`` and the relay regions ``E_l, E_r, E_t, E_b``; for NN-SENS also
``C_l, C_r, C_t, C_b``).  A region is represented here as a
:class:`RegionPredicate`: a callable that maps an ``(n, 2)`` array of points
to a boolean membership mask.  Predicates compose with intersection, union
and difference, and every predicate carries a bounding box so that areas can
be integrated numerically (:mod:`repro.geometry.integration`).

The trickiest region in the paper is the UDG relay region, defined as "the
intersection of all unit discs centred at points of C0 and of the
neighbouring tile's facing relay region".  :class:`DiscIntersectionPredicate`
implements "within distance r of *every* point of a compact anchor set" by
reducing the universal quantifier to a maximum over the anchor set boundary
(for a convex anchor the farthest anchor point from any query lies on the
anchor's boundary), evaluated against a dense boundary sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.geometry.primitives import Disc, Rect, as_points

__all__ = [
    "RegionPredicate",
    "DiscPredicate",
    "AnnulusPredicate",
    "RectPredicate",
    "HalfPlanePredicate",
    "IntersectionPredicate",
    "UnionPredicate",
    "DifferencePredicate",
    "DiscIntersectionPredicate",
    "EmptyPredicate",
]


class RegionPredicate:
    """Base class for planar region membership tests.

    Subclasses implement :meth:`contains` and expose :attr:`bounds`, an
    axis-aligned bounding rectangle that encloses the region (it may be
    loose).  The bounding box is what the numeric area estimators integrate
    over.
    """

    bounds: Rect

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership mask for an ``(n, 2)`` point array."""
        raise NotImplementedError

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.contains(points)

    def contains_shared(self, points: np.ndarray, tested: Dict[int, np.ndarray]) -> np.ndarray:
        """:meth:`contains` over ``(n, 2)`` ``points``, tested once per predicate object.

        ``tested`` maps ``id(predicate)`` to its mask over these same
        ``points``; it is filled as predicates are tested, so regions that
        share a part object (an intersection's band, say) pay for it once.
        The returned mask may be shared: treat it as read-only.
        """
        mask = tested.get(id(self))
        if mask is None:
            mask = tested[id(self)] = self.contains(points)
        return mask

    # -- composition helpers ------------------------------------------------
    def intersect(self, other: "RegionPredicate") -> "IntersectionPredicate":
        return IntersectionPredicate([self, other])

    def union(self, other: "RegionPredicate") -> "UnionPredicate":
        return UnionPredicate([self, other])

    def minus(self, other: "RegionPredicate") -> "DifferencePredicate":
        return DifferencePredicate(self, other)

    def is_empty(self, resolution: int = 256) -> bool:
        """Heuristic emptiness check on a ``resolution²`` grid over the bounds.

        Used to diagnose the degenerate paper-parameter UDG relay regions
        (DESIGN.md §2).  A ``True`` result means no grid sample fell inside
        the region; for the region shapes used in this library (finite unions
        and intersections of discs and rectangles) that is a reliable
        indicator of zero or near-zero area.
        """
        if self.bounds.area == 0:
            return True
        pts = self.bounds.grid(resolution)
        return not bool(np.any(self.contains(pts)))


def _intersect_bounds(bounds: Sequence[Rect]) -> Rect:
    xmin = max(b.xmin for b in bounds)
    ymin = max(b.ymin for b in bounds)
    xmax = min(b.xmax for b in bounds)
    ymax = min(b.ymax for b in bounds)
    if xmax < xmin or ymax < ymin:
        # Empty intersection: collapse to a degenerate box.
        return Rect(xmin, ymin, xmin, ymin)
    return Rect(xmin, ymin, xmax, ymax)


def _union_bounds(bounds: Sequence[Rect]) -> Rect:
    return Rect(
        min(b.xmin for b in bounds),
        min(b.ymin for b in bounds),
        max(b.xmax for b in bounds),
        max(b.ymax for b in bounds),
    )


@dataclass
class DiscPredicate(RegionPredicate):
    """Closed disc region."""

    disc: Disc

    def __post_init__(self) -> None:
        r = self.disc.radius
        self.bounds = Rect(self.disc.cx - r, self.disc.cy - r, self.disc.cx + r, self.disc.cy + r)

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.disc.contains(points)


@dataclass
class AnnulusPredicate(RegionPredicate):
    """Closed annulus ``inner < d(p, c) <= outer`` centred at ``center``.

    The inner boundary is *open* so that an annulus composed with the disc it
    surrounds forms a partition (a point never belongs to both).
    """

    cx: float
    cy: float
    inner: float
    outer: float

    def __post_init__(self) -> None:
        if not 0 <= self.inner <= self.outer:
            raise ValueError("annulus radii must satisfy 0 <= inner <= outer")
        self.bounds = Rect(
            self.cx - self.outer, self.cy - self.outer, self.cx + self.outer, self.cy + self.outer
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points)
        d2 = (pts[:, 0] - self.cx) ** 2 + (pts[:, 1] - self.cy) ** 2
        return (d2 > self.inner**2) & (d2 <= self.outer**2 + 1e-12)


@dataclass
class RectPredicate(RegionPredicate):
    """Axis-aligned rectangular region."""

    rect: Rect
    closed: bool = True

    def __post_init__(self) -> None:
        self.bounds = self.rect

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.rect.contains(points, closed=self.closed)


@dataclass
class HalfPlanePredicate(RegionPredicate):
    """Half-plane ``a·x + b·y <= c``.

    The bounding box is taken from an explicit ``clip`` rectangle because a
    half-plane is unbounded; callers always intersect half-planes with a tile.
    """

    a: float
    b: float
    c: float
    clip: Rect

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("half-plane normal must be non-zero")
        self.bounds = self.clip

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points)
        return self.a * pts[:, 0] + self.b * pts[:, 1] <= self.c + 1e-12


@dataclass
class IntersectionPredicate(RegionPredicate):
    """Intersection of several regions."""

    parts: Sequence[RegionPredicate]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("intersection of zero regions is undefined here")
        self.bounds = _intersect_bounds([p.bounds for p in self.parts])

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self._intersect(as_points(points), {})

    def contains_shared(self, points: np.ndarray, tested: Dict[int, np.ndarray]) -> np.ndarray:
        mask = tested.get(id(self))
        if mask is None:
            mask = tested[id(self)] = self._intersect(points, tested)
        return mask

    def _intersect(self, pts: np.ndarray, tested: Dict[int, np.ndarray]) -> np.ndarray:
        first, *rest = self.parts
        mask = first.contains_shared(pts, tested).copy()
        for part in rest:
            if not mask.any():
                break
            mask &= part.contains_shared(pts, tested)
        return mask


@dataclass
class UnionPredicate(RegionPredicate):
    """Union of several regions."""

    parts: Sequence[RegionPredicate]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("union of zero regions is undefined here")
        self.bounds = _union_bounds([p.bounds for p in self.parts])

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points)
        mask = np.zeros(len(pts), dtype=bool)
        for part in self.parts:
            if mask.all():
                break
            mask |= part.contains(pts)
        return mask


@dataclass
class DifferencePredicate(RegionPredicate):
    """Set difference ``base \\ removed``."""

    base: RegionPredicate
    removed: RegionPredicate

    def __post_init__(self) -> None:
        self.bounds = self.base.bounds

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points)
        return self.base.contains(pts) & ~self.removed.contains(pts)


class EmptyPredicate(RegionPredicate):
    """The empty region (useful as a neutral element and in degeneracy reports)."""

    def __init__(self) -> None:
        self.bounds = Rect(0.0, 0.0, 0.0, 0.0)

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.zeros(len(as_points(points)), dtype=bool)


class DiscIntersectionPredicate(RegionPredicate):
    """Points within a (possibly anchor-dependent) radius of *every* anchor point.

    Implements regions of the form

    .. math::  \\{ q : \\forall c \\in A,\\  d(q, c) \\le r(c) \\}

    where ``A`` is a compact anchor set approximated by a dense sample
    (typically the boundary of a disc plus its centre) and ``r`` is either a
    constant or a per-anchor radius array.

    This is exactly the shape of the paper's relay regions:

    * UDG-SENS ``E_r``: anchors = all points of ``C0(t)`` (and of the facing
      relay region), constant radius 1 (the UDG connection radius).
    * NN-SENS ``E_r``: anchors = all points of ``C0 ∪ C_r``; the radius of the
      disc anchored at ``c`` is the distance from ``c`` to the boundary of the
      two-tile rectangle ("largest circle centred at c that lies wholly within
      the two tiles").

    For convex anchor sets with a constant radius the binding constraint is
    attained on the anchor boundary, so sampling the boundary densely gives a
    conservative, convergent approximation; we additionally include interior
    anchor samples when per-anchor radii are supplied because the binding
    anchor need not be extremal in that case.
    """

    def __init__(self, anchors: np.ndarray, radii: float | np.ndarray, bounds: Rect) -> None:
        self.anchors = as_points(anchors)
        if len(self.anchors) == 0:
            raise ValueError("anchor set must be non-empty")
        radii_arr = np.asarray(radii, dtype=np.float64)
        if radii_arr.ndim == 0:
            radii_arr = np.full(len(self.anchors), float(radii_arr))
        if radii_arr.shape != (len(self.anchors),):
            raise ValueError("radii must be a scalar or one value per anchor")
        if np.any(radii_arr < 0):
            raise ValueError("radii must be non-negative")
        self.radii = radii_arr
        self.bounds = bounds
        # ``contains`` admits q only if d²(q, c) <= r(c)² + 1e-12 for every
        # anchor c, and that needs |qx − cx| and |qy − cy| <= sqrt(r(c)² +
        # 1e-12) up to a few ULPs of rounding.  So no admitted point lies
        # outside this box: the per-anchor reach, widened by one part in 10⁹
        # and then by two ULPs of each edge, intersected over the anchors.
        # It is derived here, not taken from ``bounds``, which callers clip.
        reach = np.sqrt(self.radii**2 + 1e-12) * (1.0 + 1e-9)
        lo = np.max(self.anchors - reach[:, None], axis=0)
        hi = np.min(self.anchors + reach[:, None], axis=0)
        for _ in range(2):
            lo = np.nextafter(lo, -np.inf)
            hi = np.nextafter(hi, np.inf)
        self._box_lo = lo
        self._box_hi = hi

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points)
        out = np.zeros(len(pts), dtype=bool)
        lo, hi = self._box_lo, self._box_hi
        in_box = np.nonzero(
            (pts[:, 0] >= lo[0]) & (pts[:, 0] <= hi[0]) & (pts[:, 1] >= lo[1]) & (pts[:, 1] <= hi[1])
        )[0]
        if in_box.size == 0:
            return out
        candidates = pts[in_box]
        # Process in chunks to bound the (n_points × n_anchors) temporary.
        chunk = max(1, int(2_000_000 / max(len(self.anchors), 1)))
        r2 = self.radii**2
        for start in range(0, len(candidates), chunk):
            block = candidates[start : start + chunk]
            diff = block[:, None, :] - self.anchors[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            out[in_box[start : start + chunk]] = np.all(d2 <= r2[None, :] + 1e-12, axis=1)
        return out
