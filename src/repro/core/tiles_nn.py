"""Tile geometry for ``NN-SENS(2, k)`` (paper §2.2, Figure 5).

A tile is a square of side ``10·a`` centred, in tile-local coordinates, at
the origin (corners at ``(±5a, ±5a)``).  Its nine regions are

* ``C0`` — representative region, a disc of radius ``a`` at the centre;
* ``C_right, C_left, C_top, C_bottom`` — discs of radius ``a`` centred at
  ``(±4a, 0)`` and ``(0, ±4a)``;
* ``E_right, E_left, E_top, E_bottom`` — the paper's "locus of points
  contained in every disc that is the largest disc centred at a point of
  C0 ∪ C_dir lying wholly within the two tiles t and t_dir".

A tile is *good* when it contains at most ``k/2`` points **and** all nine
regions are occupied.  The k-nearest-neighbour connectivity argument
(Claim 2.3) then guarantees the 5-hop path
``rep(t) – E_dir(t) – C_dir(t) – C_opp(t') – E_opp(t') – rep(t')`` between the
representatives of neighbouring good tiles, because every hop is realised by
a disc that stays inside ``t ∪ t'`` and therefore contains at most ``k``
points.

The E-regions are evaluated with
:class:`repro.geometry.predicates.DiscIntersectionPredicate`: the universal
quantifier over anchor points is approximated by a dense sample of anchors
(boundary rings plus interior rings of C0 and C_dir), each with its own
radius ``dist(anchor, ∂(t ∪ t_dir))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.core.tiles_base import DIRECTIONS, SpecDiagnostics, TileSpec
from repro.geometry.predicates import (
    DiscIntersectionPredicate,
    DiscPredicate,
    IntersectionPredicate,
    RectPredicate,
    RegionPredicate,
)
from repro.geometry.primitives import Disc, Rect, pairwise_distances, rect_union

__all__ = ["NNTileSpec"]

_DIRECTION_VECTORS: Dict[str, np.ndarray] = {
    "right": np.array([1.0, 0.0]),
    "left": np.array([-1.0, 0.0]),
    "top": np.array([0.0, 1.0]),
    "bottom": np.array([0.0, -1.0]),
}


@dataclass(frozen=True)
class NNTileSpec(TileSpec):
    """Geometry of one NN-SENS tile (tile-local coordinates, centre at origin).

    Parameters
    ----------
    a:
        The disc radius parameter; the tile side is ``10·a``.  The paper's
        Theorem 2.4 uses ``a = 0.893`` together with ``k = 188``.
    anchor_samples:
        Number of boundary samples per anchor disc used to approximate the
        universal quantifier in the E-region definition.  Higher is more
        faithful but slower; 48 is plenty for the region shapes involved.
    occupancy_fraction:
        A tile is good only if it contains at most ``occupancy_fraction · k``
        points (the paper uses 1/2).
    """

    a: float = 0.893
    anchor_samples: int = 48
    occupancy_fraction: float = 0.5

    representative_region: str = "C0"

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.anchor_samples < 8:
            raise ValueError("anchor_samples must be at least 8")
        if not 0 < self.occupancy_fraction <= 1:
            raise ValueError("occupancy_fraction must lie in (0, 1]")

    @classmethod
    def paper(cls) -> "NNTileSpec":
        """The parameters of Theorem 2.4 (a = 0.893)."""
        return cls(a=0.893)

    @classmethod
    def default(cls) -> "NNTileSpec":
        """Default spec — identical to the paper's (the NN geometry is sound)."""
        return cls.paper()

    # -- TileSpec interface ----------------------------------------------------
    @property
    def tile_side(self) -> float:  # type: ignore[override]
        return 10.0 * self.a

    @property
    def region_names(self) -> Sequence[str]:  # type: ignore[override]
        return (
            "C0",
            "C_right",
            "C_left",
            "C_top",
            "C_bottom",
            "E_right",
            "E_left",
            "E_top",
            "E_bottom",
        )

    @property
    def required_regions(self) -> Sequence[str]:  # type: ignore[override]
        return self.region_names

    def max_points_per_tile(self, k: int | None) -> int | None:
        """The NN goodness cap: at most ``occupancy_fraction · k`` points per tile."""
        if k is None:
            raise ValueError("NN-SENS goodness requires the parameter k")
        return int(np.floor(self.occupancy_fraction * k))

    def tile_rect(self) -> Rect:
        return Rect.centered((0.0, 0.0), self.tile_side, self.tile_side)

    def c_disc(self, name: str) -> Disc:
        """The C-disc for ``name`` in {"C0", "C_right", ...} (tile-local)."""
        if name == "C0":
            return Disc(0.0, 0.0, self.a)
        direction = name.removeprefix("C_")
        vec = _DIRECTION_VECTORS[direction] * (4.0 * self.a)
        return Disc(float(vec[0]), float(vec[1]), self.a)

    def two_tile_rect(self, direction: str) -> Rect:
        """Bounding rectangle of this tile together with its ``direction`` neighbour."""
        own = self.tile_rect()
        vec = _DIRECTION_VECTORS[direction] * self.tile_side
        return rect_union(own, own.translate(float(vec[0]), float(vec[1])))

    def _anchor_set(self, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """Anchor points (C0 ∪ C_dir samples) and their per-anchor radii.

        The radius attached to an anchor ``c`` is the distance from ``c`` to
        the boundary of the two-tile rectangle — the radius of "the largest
        circle centred at c that lies wholly within the two tiles".
        """
        pair_rect = self.two_tile_rect(direction)
        discs = [self.c_disc("C0"), self.c_disc(f"C_{direction}")]
        anchors = []
        for disc in discs:
            anchors.append(disc.boundary_points(self.anchor_samples))
            # Interior rings: the binding anchor need not be extremal because
            # the per-anchor radius varies with position.
            for frac in (0.0, 0.5):
                ring = Disc(disc.cx, disc.cy, disc.radius * frac)
                # repro: allow[REPRO201] literal-vs-literal comparison
                n = 1 if frac == 0.0 else self.anchor_samples // 2
                anchors.append(ring.boundary_points(max(n, 1)))
        anchor_pts = np.vstack(anchors)
        radii = np.minimum.reduce(
            [
                anchor_pts[:, 0] - pair_rect.xmin,
                pair_rect.xmax - anchor_pts[:, 0],
                anchor_pts[:, 1] - pair_rect.ymin,
                pair_rect.ymax - anchor_pts[:, 1],
            ]
        )
        return anchor_pts, radii

    def e_region(self, direction: str) -> RegionPredicate:
        """The relay region ``E_direction`` (tile-local coordinates)."""
        anchors, radii = self._anchor_set(direction)
        # The region necessarily lies between C0 and C_dir; bound it by the
        # intersection of the per-anchor disc bounding boxes clipped to the tile.
        lo = np.max(anchors - radii[:, None], axis=0)
        hi = np.min(anchors + radii[:, None], axis=0)
        tile = self.tile_rect()
        bounds = Rect(
            max(lo[0], tile.xmin),
            max(lo[1], tile.ymin),
            min(hi[0], tile.xmax),
            min(hi[1], tile.ymax),
        ) if (hi[0] > lo[0] and hi[1] > lo[1]) else Rect(0.0, 0.0, 0.0, 0.0)
        core = DiscIntersectionPredicate(anchors, radii, bounds)
        return IntersectionPredicate([core, RectPredicate(tile)])

    def _build_region_predicates(self) -> Mapping[str, RegionPredicate]:
        preds: Dict[str, RegionPredicate] = {}
        for name in ("C0", "C_right", "C_left", "C_top", "C_bottom"):
            preds[name] = DiscPredicate(self.c_disc(name))
        for direction in DIRECTIONS:
            preds[f"E_{direction}"] = self.e_region(direction)
        return preds

    def region_anchor(self, name: str) -> np.ndarray:
        if name == "C0":
            return np.zeros(2)
        if name.startswith("C_"):
            disc = self.c_disc(name)
            return disc.center
        direction = name.removeprefix("E_")
        if direction not in _DIRECTION_VECTORS:
            raise KeyError(f"unknown region {name!r}")
        return _DIRECTION_VECTORS[direction] * (2.0 * self.a)

    def relay_chain(self, direction: str) -> Sequence[str]:
        """NN-SENS relays per direction: first the E-region, then the C-disc."""
        return (f"E_{direction}", f"C_{direction}")

    # -- validation --------------------------------------------------------------
    def validate(self, resolution: int = 200) -> SpecDiagnostics:
        """Check feasibility and the Claim 2.3 disc-containment guarantees.

        Guarantee margins (all must be ≥ 0):

        ``e_within_rep_disc``
            For sampled rep ∈ C0 and relay ∈ E_right: the disc centred at rep
            through the relay stays inside the two-tile rectangle.
        ``c_to_neighbour_c``
            For sampled c ∈ C_right and target ∈ C_left of the right
            neighbour: the disc centred at c through the target stays inside
            the two-tile rectangle (the paper's "must contain the left disc of
            its neighbouring tile" step).
        ``e_between_c0_and_cdir``
            E_right actually lies between C0 and C_right (sanity of the anchor
            approximation): distance of every E_right sample to both disc
            centres is below the tile side.
        """
        areas = self._area_report(resolution)
        empty = tuple(name for name in self.required_regions if areas[name] <= 1e-9)
        notes: list[str] = []
        margins: Dict[str, float] = {}

        pair_rect = self.two_tile_rect("right")
        preds = self.region_predicates()
        tile = self.tile_rect()
        grid = tile.grid(resolution)
        c0_pts = grid[preds["C0"].contains(grid)]
        er_pts = grid[preds["E_right"].contains(grid)]
        cr_pts = grid[preds["C_right"].contains(grid)]

        def containment_margin(centers: np.ndarray, targets: np.ndarray) -> float:
            """min over (center, target) of dist(center, ∂pair_rect) − d(center, target)."""
            if len(centers) == 0 or len(targets) == 0:
                return float("-inf")
            boundary = np.minimum.reduce(
                [
                    centers[:, 0] - pair_rect.xmin,
                    pair_rect.xmax - centers[:, 0],
                    centers[:, 1] - pair_rect.ymin,
                    pair_rect.ymax - centers[:, 1],
                ]
            )
            dists = pairwise_distances(centers, targets)
            return float(np.min(boundary[:, None] - dists))

        margins["e_within_rep_disc"] = containment_margin(c0_pts, er_pts)
        # The left C-disc of the right-hand neighbour, in this tile's local frame.
        neighbour_cl = self.c_disc("C_left").translate(self.tile_side, 0.0)
        cl_neighbour_pts = np.vstack([neighbour_cl.boundary_points(64), neighbour_cl.center[None, :]])
        margins["c_to_neighbour_c"] = containment_margin(cr_pts, cl_neighbour_pts)
        if len(er_pts):
            d0 = pairwise_distances(er_pts, np.zeros((1, 2))).max()
            d4 = pairwise_distances(er_pts, np.array([[4.0 * self.a, 0.0]])).max()
            margins["e_between_c0_and_cdir"] = self.tile_side - max(float(d0), float(d4))
        else:
            margins["e_between_c0_and_cdir"] = float("-inf")
            notes.append("E_right came out empty; increase anchor_samples or check a.")

        feasible = not empty and all(v >= -1e-9 for v in margins.values())
        return SpecDiagnostics(
            feasible=feasible,
            region_areas=areas,
            empty_regions=empty,
            guarantee_margins=margins,
            notes=tuple(notes),
        )

    # -- analytic helpers ---------------------------------------------------------
    def region_area_estimates(self, resolution: int = 250) -> Dict[str, float]:
        """Grid-integrated areas of all regions (tile-local coordinates)."""
        return self._area_report(resolution)

    def analytic_good_probability(
        self, k: int, intensity: float = 1.0, resolution: int = 250
    ) -> float:
        """Independence-based estimate of P(tile good) for parameter ``k``.

        Combines the occupancy cap (Poisson CDF at ``k·occupancy_fraction``
        with mean ``λ·(10a)²``) with per-region occupancy probabilities
        ``1 − exp(−λ·area)``.  The regions C0, C_left/right/top/bottom are
        pairwise disjoint; the E-regions may overlap the C-discs' complements
        only, so the product is a reasonable approximation — the Monte-Carlo
        estimator remains the reference.

        Note that for the NN model the intensity is a free scaling choice (the
        graph is scale-invariant); the default ``intensity = 1`` matches the
        convention used in the paper's numbers.
        """
        from scipy import stats

        if k < 1:
            raise ValueError("k must be positive")
        mean_count = intensity * self.tile_side**2
        cap = self.max_points_per_tile(k)
        prob = float(stats.poisson.cdf(cap, mean_count))
        for name, area in self.region_area_estimates(resolution).items():
            prob *= 1.0 - np.exp(-intensity * area)
        return float(prob)
