"""Tile geometry for ``UDG-SENS(2, λ)`` (paper §2.1, Figure 3).

A tile is a square of side ``side`` (4/3 in the paper).  Its regions are

* ``C0`` — the representative region, a disc of radius ``rep_radius`` at the
  tile centre (1/2 in the paper);
* ``E_right, E_left, E_top, E_bottom`` — relay regions sitting between C0 and
  each tile edge.

The paper defines a relay region as the set of points within unit distance of
*every* point of C0 and of the facing relay region of the neighbouring tile.
With the paper's parameters that set minus C0 is empty (the set of points
within distance 1 of all of a radius-1/2 disc *is* that disc), so the
construction as stated is degenerate — see DESIGN.md §2.  This module keeps
the same *shape* of definition but parameterises it so it can be made
non-degenerate:

``E_dir = {q ∈ tile : rep_radius < |q − centre| ≤ connection_radius − rep_radius
                       and |q − edge_midpoint(dir)| ≤ relay_reach}``

The first condition makes q reachable (one hop ≤ connection_radius) from
*any* representative in C0; the second makes q reachable from *any* point of
the facing relay region of the neighbour (both lie within ``relay_reach`` of
the shared edge midpoint, so their distance is at most ``2·relay_reach``,
which must not exceed ``connection_radius``).  These are exactly the
guarantees Claim 2.1 needs for its 3-hop path of unit-length edges, and they
are verified numerically by :meth:`UDGTileSpec.validate` and by the
property-based tests.

``UDGTileSpec.paper()`` reproduces the stated parameters (and is reported as
infeasible); ``UDGTileSpec.default()`` is the repaired parameterisation used
throughout the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.core.tiles_base import DIRECTIONS, SpecDiagnostics, TileSpec
from repro.geometry.predicates import (
    AnnulusPredicate,
    DiscPredicate,
    IntersectionPredicate,
    RectPredicate,
    RegionPredicate,
)
from repro.geometry.primitives import Disc, Rect

__all__ = ["UDGTileSpec"]

#: Unit vector pointing towards each tile edge.
_DIRECTION_VECTORS: Dict[str, np.ndarray] = {
    "right": np.array([1.0, 0.0]),
    "left": np.array([-1.0, 0.0]),
    "top": np.array([0.0, 1.0]),
    "bottom": np.array([0.0, -1.0]),
}


@dataclass(frozen=True)
class UDGTileSpec(TileSpec):
    """Geometry of one UDG-SENS tile (tile-local coordinates, centre at origin).

    Parameters
    ----------
    side:
        Tile side length (paper: 4/3).
    rep_radius:
        Radius of the representative region C0 (paper: 1/2 — degenerate).
    connection_radius:
        UDG connection radius (paper: 1).
    relay_reach:
        Maximum distance of a relay point from the shared edge midpoint.  Any
        value ≤ ``connection_radius / 2`` guarantees relay-to-relay edges
        across the tile border.
    """

    side: float = 4.0 / 3.0
    rep_radius: float = 1.0 / 3.0
    connection_radius: float = 1.0
    relay_reach: float = 0.5

    representative_region: str = "C0"

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise ValueError("tile side must be positive")
        if not 0 < self.rep_radius < self.connection_radius:
            raise ValueError("rep_radius must lie in (0, connection_radius)")
        if self.relay_reach <= 0:
            raise ValueError("relay_reach must be positive")
        if self.rep_radius > self.side / 2:
            raise ValueError("representative disc does not fit inside the tile")

    # -- factory parameterisations ---------------------------------------------
    @classmethod
    def paper(cls) -> "UDGTileSpec":
        """The parameters stated in the paper (side 4/3, C0 radius 1/2).

        This spec is geometrically degenerate (its relay regions are empty);
        it exists so that experiment E10 can demonstrate and report the
        degeneracy rather than silently papering over it.
        """
        return cls(side=4.0 / 3.0, rep_radius=0.5, connection_radius=1.0, relay_reach=0.5)

    @classmethod
    def default(cls) -> "UDGTileSpec":
        """The repaired default used across the experiments.

        ``rep_radius = 1/3`` keeps the annulus ``(1/3, 2/3]`` available for the
        relay regions while C0 stays reasonably large; ``relay_reach = 1/2``
        gives the across-the-border guarantee for a unit connection radius.
        """
        return cls(side=4.0 / 3.0, rep_radius=1.0 / 3.0, connection_radius=1.0, relay_reach=0.5)

    # -- TileSpec interface ------------------------------------------------------
    @property
    def tile_side(self) -> float:  # type: ignore[override]
        return self.side

    @property
    def region_names(self) -> Sequence[str]:  # type: ignore[override]
        return ("C0", "E_right", "E_left", "E_top", "E_bottom")

    @property
    def required_regions(self) -> Sequence[str]:  # type: ignore[override]
        return self.region_names

    def max_points_per_tile(self, k: int | None) -> int | None:
        """UDG-SENS places no cap on the number of points per tile."""
        return None

    def tile_rect(self) -> Rect:
        """The tile footprint in tile-local coordinates."""
        return Rect.centered((0.0, 0.0), self.side, self.side)

    def edge_midpoint(self, direction: str) -> np.ndarray:
        """Midpoint of the tile edge in the given direction (tile-local)."""
        return _DIRECTION_VECTORS[direction] * (self.side / 2.0)

    def relay_region(self, direction: str) -> RegionPredicate:
        """The relay region towards ``direction`` (tile-local coordinates)."""
        return self.region_predicates()[f"E_{direction}"]

    def _build_region_predicates(self) -> Mapping[str, RegionPredicate]:
        preds: Dict[str, RegionPredicate] = {"C0": DiscPredicate(Disc(0.0, 0.0, self.rep_radius))}
        # Every relay region is the annulus around C0, cut to the tile, near
        # one edge midpoint; one band object serves all four, so
        # classify_points tests it once.
        annulus = AnnulusPredicate(
            0.0, 0.0, inner=self.rep_radius, outer=self.connection_radius - self.rep_radius
        )
        band = IntersectionPredicate([annulus, RectPredicate(self.tile_rect())])
        for direction in DIRECTIONS:
            mx, my = self.edge_midpoint(direction)
            near_edge = DiscPredicate(Disc(float(mx), float(my), self.relay_reach))
            preds[f"E_{direction}"] = IntersectionPredicate([band, near_edge])
        return preds

    def region_anchor(self, name: str) -> np.ndarray:
        """Nominal centre of a region, used for deterministic point selection."""
        if name == "C0":
            return np.zeros(2)
        direction = name.removeprefix("E_")
        if direction not in _DIRECTION_VECTORS:
            raise KeyError(f"unknown region {name!r}")
        # Nominal relay anchor: radially between C0 and the tile edge, at the
        # middle of the admissible annulus.
        radius = (self.rep_radius + (self.connection_radius - self.rep_radius)) / 2.0
        radius = min(radius, self.side / 2.0 - 1e-9)
        return _DIRECTION_VECTORS[direction] * radius

    def relay_chain(self, direction: str) -> Sequence[str]:
        """UDG-SENS uses a single relay per direction (rep – E_dir – E_opp – rep)."""
        return (f"E_{direction}",)

    # -- validation ----------------------------------------------------------------
    def validate(self, resolution: int = 300) -> SpecDiagnostics:
        """Check feasibility and the Claim 2.1 connectivity guarantees.

        Guarantee margins reported (all must be ≥ 0 for the construction to be
        provably correct):

        ``rep_to_relay``
            ``connection_radius − (rep_radius + (connection_radius − rep_radius))``
            is identically 0 by construction; instead we report the margin of
            the *numerically observed* farthest C0-to-relay distance.
        ``relay_to_relay``
            ``connection_radius − 2·relay_reach`` — across-the-border edge.
        ``relay_inside_tile``
            distance of the relay annulus from the tile boundary (≥ 0 means
            the admissible relay band fits inside the tile).
        """
        areas = self._area_report(resolution)
        empty = tuple(name for name in self.required_regions if areas[name] <= 1e-9)
        notes: list[str] = []

        margins: Dict[str, float] = {}
        # Numeric worst-case rep→relay distance: sample both regions.
        preds = self.region_predicates()
        rect = self.tile_rect()
        grid = rect.grid(resolution)
        c0_pts = grid[preds["C0"].contains(grid)]
        er_pts = grid[preds["E_right"].contains(grid)]
        if len(c0_pts) and len(er_pts):
            from repro.geometry.primitives import pairwise_distances

            worst = float(pairwise_distances(c0_pts, er_pts).max())
            margins["rep_to_relay"] = self.connection_radius - worst
        else:
            margins["rep_to_relay"] = float("-inf") if er_pts.size == 0 else 0.0
        margins["relay_to_relay"] = self.connection_radius - 2.0 * self.relay_reach
        margins["relay_inside_tile"] = self.side / 2.0 - self.rep_radius
        # The annulus outer radius must exceed the inner radius for relay
        # regions to have any area at all; this is the paper's degeneracy.
        annulus_width = (self.connection_radius - self.rep_radius) - self.rep_radius
        margins["annulus_width"] = annulus_width
        if annulus_width <= 0:
            notes.append(
                "rep_radius >= connection_radius/2: the set of points within "
                "connection_radius of every point of C0 does not extend beyond C0, "
                "so the relay regions are empty (the paper-parameter degeneracy)."
            )

        feasible = not empty and all(v >= -1e-9 for v in margins.values())
        return SpecDiagnostics(
            feasible=feasible,
            region_areas=areas,
            empty_regions=empty,
            guarantee_margins=margins,
            notes=tuple(notes),
        )

    # -- analytic helpers used by the threshold search ------------------------------
    def region_area_estimates(self, resolution: int = 400) -> Dict[str, float]:
        """Grid-integrated areas of all regions (tile-local)."""
        return self._area_report(resolution)

    def analytic_good_probability(self, intensity: float, resolution: int = 400) -> float:
        """Independence-based estimate of P(tile is good) at the given intensity.

        Treats the five required regions as if they were disjoint (the four
        relay regions can overlap near the tile corners, so this is an
        approximation; the Monte-Carlo estimator in
        :mod:`repro.core.thresholds` is the reference).  Each region is
        occupied with probability ``1 − exp(−λ·area)``.
        """
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        prob = 1.0
        for name, area in self.region_area_estimates(resolution).items():
            if name in self.required_regions:
                prob *= 1.0 - np.exp(-intensity * area)
        return float(prob)
