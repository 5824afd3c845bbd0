"""Shared tile-specification interface.

A *tile spec* describes the internal geometry of one tile of the SENS
constructions in tile-local coordinates (the tile is centred at the origin):
which regions exist, which must be occupied for the tile to be *good*, where
the nominal anchor of each region sits (used for the deterministic
representative / relay selection that stands in for leader election), and how
large the relay structure is.

Two concrete specs exist:

* :class:`repro.core.tiles_udg.UDGTileSpec` — 5 regions (C0 and four relay
  regions), for ``UDG-SENS(2, λ)``.
* :class:`repro.core.tiles_nn.NNTileSpec` — 9 regions (C0, four C-discs, four
  E-regions), for ``NN-SENS(2, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.geometry.predicates import RegionPredicate
from repro.geometry.primitives import as_points

__all__ = ["TileSpec", "SpecDiagnostics", "RegionColumns", "DIRECTIONS"]

#: Tile directions in the fixed order used throughout the package.
DIRECTIONS: Tuple[str, ...] = ("right", "left", "top", "bottom")


@dataclass(frozen=True)
class SpecDiagnostics:
    """Result of validating a tile specification.

    Attributes
    ----------
    feasible:
        ``True`` when every required region has positive (numerically
        detectable) area.  The paper-parameter UDG spec is *infeasible*
        (DESIGN.md §2) and this is where that shows up.
    region_areas:
        Numerically estimated area of each region.
    empty_regions:
        Names of required regions with (near-)zero area.
    guarantee_margins:
        Per-check slack of the connectivity guarantees (positive = satisfied).
        The exact set of checks is spec-dependent; see each spec's
        ``validate`` docstring.
    notes:
        Human-readable remarks (degeneracy warnings etc.).
    """

    feasible: bool
    region_areas: Dict[str, float]
    empty_regions: Tuple[str, ...]
    guarantee_margins: Dict[str, float]
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RegionColumns:
    """Where each region sits in per-region arrays (``region_names`` order).

    ``anchors`` is the read-only ``(R, 2)`` array of region anchors,
    ``required`` the columns of ``required_regions`` (in that order) and
    ``representative`` the column of the representative region.
    """

    anchors: np.ndarray
    required: Tuple[int, ...]
    representative: int


class TileSpec:
    """Base class for tile specifications.

    Concrete specs must provide:

    ``tile_side``
        Side length of the square tile.
    ``region_names``
        Names of all regions, with the representative region first.
    ``required_regions``
        Regions that must contain at least one point for the tile to be good.
    ``_build_region_predicates()``
        Mapping name → :class:`RegionPredicate` in tile-local coordinates;
        :meth:`region_predicates` builds it once per spec and returns it
        read-only thereafter.
    ``region_anchor(name)``
        Nominal centre of a region (tile-local), used to pick one point when a
        region holds several (the centralized stand-in for leader election:
        closest-to-anchor wins, ties broken by point index).
    ``max_points_per_tile(k)``
        Occupancy cap for goodness (``None`` = no cap; ``k // 2`` for NN-SENS).
    ``validate()``
        Return :class:`SpecDiagnostics`.
    """

    tile_side: float
    region_names: Sequence[str]
    required_regions: Sequence[str]

    #: Name of the representative region.
    representative_region: str = "C0"

    def region_predicates(self) -> Mapping[str, RegionPredicate]:
        """Mapping name → predicate in tile-local coordinates, built once per spec."""
        return self._region_predicates

    @cached_property
    def _region_predicates(self) -> Mapping[str, RegionPredicate]:
        # cached_property writes the instance __dict__ directly, so it works
        # on the frozen dataclass specs and stays out of their fields: the
        # spec's equality, hash and runner cache key never see it.
        return MappingProxyType(dict(self._build_region_predicates()))

    def _build_region_predicates(self) -> Mapping[str, RegionPredicate]:
        raise NotImplementedError

    @cached_property
    def region_columns(self) -> RegionColumns:
        """The per-region column layout, built once per spec (like the predicates)."""
        names = list(self.region_names)
        anchors = np.array([self.region_anchor(name) for name in names], dtype=np.float64)
        anchors.flags.writeable = False
        return RegionColumns(
            anchors=anchors.reshape(len(names), 2),
            required=tuple(names.index(name) for name in self.required_regions),
            representative=names.index(self.representative_region),
        )

    def __getstate__(self) -> Dict[str, object]:
        # Built predicates and columns are not pickled; an unpickled spec
        # rebuilds them.
        state = dict(self.__dict__)
        for built in ("_region_predicates", "region_columns"):
            state.pop(built, None)
        return state

    def region_anchor(self, name: str) -> np.ndarray:
        raise NotImplementedError

    def max_points_per_tile(self, k: int | None) -> int | None:
        """Occupancy cap used by the goodness test (``None`` disables the cap)."""
        return None

    def relay_chain(self, direction: str) -> Sequence[str]:
        """Ordered relay-region names from the representative towards ``direction``.

        The overlay builder wires ``rep – chain[0] – chain[1] – … – (facing
        chain of the neighbouring tile, reversed) – neighbour rep``.  For
        UDG-SENS the chain has length 1 (one relay per direction); for NN-SENS
        it has length 2 (E-region then C-disc).
        """
        raise NotImplementedError

    def facing_direction(self, direction: str) -> str:
        """Direction name of the neighbouring tile's facing relay chain."""
        from repro.core.tiling import OPPOSITE_DIRECTION

        return OPPOSITE_DIRECTION[direction]

    def validate(self, resolution: int = 300) -> SpecDiagnostics:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------
    def _area_report(self, resolution: int) -> Dict[str, float]:
        """Grid-integrated area of every region (tile-local coordinates)."""
        from repro.geometry.integration import estimate_area_grid

        return {
            name: estimate_area_grid(pred, resolution=resolution).area
            for name, pred in self.region_predicates().items()
        }

    def classify_points(self, local_points: np.ndarray) -> Dict[str, np.ndarray]:
        """Region membership masks for points given in tile-local coordinates.

        Returns a mapping region name → boolean mask over ``local_points``.
        A point may belong to several regions (relay regions are allowed to
        overlap; the paper notes one point may fulfil two relay functions).
        Each mask equals the region predicate's own ``contains``; a part
        object that several regions share is tested once
        (:meth:`~repro.geometry.predicates.RegionPredicate.contains_shared`).
        """
        pts = as_points(local_points)
        tested: Dict[int, np.ndarray] = {}
        return {
            name: pred.contains_shared(pts, tested)
            for name, pred in self.region_predicates().items()
        }
