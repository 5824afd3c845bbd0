"""Square tiling of the plane and the tile ↔ Z² bijection.

The constructions view R² as a union of square tiles of side ``tile_side``.
A :class:`Tiling` restricts that to a finite window: only tiles fully
contained in the window are *interior* tiles and take part in the coupling
(the bijection φ of the paper maps tile (col, row) to the lattice site
(row, col), so the good-tile indicator becomes the open-site mask of a
:class:`repro.percolation.lattice.LatticeConfiguration`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Tuple

import numpy as np

from repro.geometry.primitives import Rect, as_points

__all__ = ["TileIndex", "Tiling"]

#: Integer (col, row) tile coordinates.
TileIndex = Tuple[int, int]

#: Offsets to the four neighbouring tiles, keyed by direction name.
DIRECTION_OFFSETS: dict[str, Tuple[int, int]] = {
    "right": (1, 0),
    "left": (-1, 0),
    "top": (0, 1),
    "bottom": (0, -1),
}

#: The direction seen from the other side (right neighbour's facing region is its "left").
OPPOSITE_DIRECTION: dict[str, str] = {
    "right": "left",
    "left": "right",
    "top": "bottom",
    "bottom": "top",
}


@dataclass(frozen=True)
class Tiling:
    """Axis-aligned square tiling of a rectangular window.

    Attributes
    ----------
    window:
        The deployment window being tiled.
    tile_side:
        Side length of every tile (``a_u = 4/3`` for UDG-SENS, ``10·a_k`` for
        NN-SENS in the paper's notation).
    origin:
        Lower-left corner of tile (0, 0).  Defaults to the window's lower-left
        corner.
    """

    window: Rect
    tile_side: float
    origin: Tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.tile_side <= 0:
            raise ValueError("tile_side must be positive")
        if self.origin is None:
            object.__setattr__(self, "origin", (self.window.xmin, self.window.ymin))

    # -- grid dimensions ------------------------------------------------------
    # cached_property writes the instance __dict__ directly, so the counts are
    # computed once on the frozen dataclass and stay out of its fields: the
    # tiling's equality and hash never see them.
    @cached_property
    def n_cols(self) -> int:
        """Number of whole tiles that fit across the window horizontally."""
        return int(np.floor((self.window.xmax - self.origin[0]) / self.tile_side + 1e-9))

    @cached_property
    def n_rows(self) -> int:
        """Number of whole tiles that fit across the window vertically."""
        return int(np.floor((self.window.ymax - self.origin[1]) / self.tile_side + 1e-9))

    @property
    def shape(self) -> Tuple[int, int]:
        """Lattice shape ``(n_rows, n_cols)`` used for the Z² coupling."""
        return (self.n_rows, self.n_cols)

    @property
    def n_tiles(self) -> int:
        return self.n_rows * self.n_cols

    # -- tile geometry ---------------------------------------------------------
    def tile_rect(self, tile: TileIndex) -> Rect:
        """Footprint rectangle of tile ``(col, row)``."""
        col, row = tile
        x0 = self.origin[0] + col * self.tile_side
        y0 = self.origin[1] + row * self.tile_side
        return Rect(x0, y0, x0 + self.tile_side, y0 + self.tile_side)

    def tile_center(self, tile: TileIndex) -> np.ndarray:
        """Centre of tile ``(col, row)``."""
        col, row = tile
        return np.array(
            [
                self.origin[0] + (col + 0.5) * self.tile_side,
                self.origin[1] + (row + 0.5) * self.tile_side,
            ]
        )

    def contains_tile(self, tile: TileIndex) -> bool:
        """True when the tile lies fully inside the window grid."""
        col, row = tile
        return 0 <= col < self.n_cols and 0 <= row < self.n_rows

    def tiles(self) -> Iterator[TileIndex]:
        """Iterate over all (col, row) tile indices of the grid."""
        for row in range(self.n_rows):
            for col in range(self.n_cols):
                yield (col, row)

    def neighbours(self, tile: TileIndex) -> dict[str, TileIndex]:
        """In-grid neighbouring tiles keyed by direction."""
        col, row = tile
        result = {}
        for direction, (dc, dr) in DIRECTION_OFFSETS.items():
            cand = (col + dc, row + dr)
            if self.contains_tile(cand):
                result[direction] = cand
        return result

    # -- point assignment ------------------------------------------------------
    def tile_of_points(self, points: np.ndarray) -> np.ndarray:
        """Tile indices ``(col, row)`` of each point (``(n, 2)`` integer array).

        Points to the left/below the origin get negative indices; callers that
        only care about in-grid tiles should mask with :meth:`in_grid_mask`.
        """
        pts = as_points(points)
        return np.floor((pts - self.origin) / self.tile_side).astype(np.int64)

    def in_grid_mask(self, tile_indices: np.ndarray) -> np.ndarray:
        """Mask of tile indices lying inside the finite grid."""
        idx = np.asarray(tile_indices, dtype=np.int64)
        return ((idx >= 0) & (idx < (self.n_cols, self.n_rows))).all(axis=1)

    def group_points_by_tile(self, points: np.ndarray) -> dict[TileIndex, np.ndarray]:
        """Map each in-grid tile index to the indices of the points inside it."""
        pts = as_points(points)
        tiles = self.tile_of_points(pts)
        in_grid = self.in_grid_mask(tiles)
        groups: dict[TileIndex, list[int]] = {}
        for point_idx in np.nonzero(in_grid)[0]:
            key = (int(tiles[point_idx, 0]), int(tiles[point_idx, 1]))
            groups.setdefault(key, []).append(int(point_idx))
        return {k: np.asarray(v, dtype=np.int64) for k, v in groups.items()}

    # -- coupling with Z² -------------------------------------------------------
    def lattice_site(self, tile: TileIndex) -> Tuple[int, int]:
        """The paper's bijection φ: tile (col, row) → lattice site (row, col)."""
        col, row = tile
        return (row, col)

    def tile_of_site(self, site: Tuple[int, int]) -> TileIndex:
        """Inverse of :meth:`lattice_site`."""
        row, col = site
        return (col, row)
