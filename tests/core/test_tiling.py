"""Tests for the square tiling and the tile ↔ Z² bijection."""

import numpy as np
import pytest

from repro.core.tiling import Tiling
from repro.geometry.primitives import Rect


@pytest.fixture
def tiling():
    return Tiling(window=Rect(0, 0, 10, 6), tile_side=2.0)


class TestGridDimensions:
    def test_shape(self, tiling):
        assert tiling.n_cols == 5
        assert tiling.n_rows == 3
        assert tiling.shape == (3, 5)
        assert tiling.n_tiles == 15

    def test_partial_tiles_excluded(self):
        t = Tiling(window=Rect(0, 0, 10.9, 6.5), tile_side=2.0)
        assert t.n_cols == 5
        assert t.n_rows == 3

    def test_invalid_tile_side(self):
        with pytest.raises(ValueError):
            Tiling(window=Rect(0, 0, 1, 1), tile_side=0.0)

    def test_origin_defaults_to_window_corner(self, tiling):
        assert tiling.origin == (0.0, 0.0)

    def test_custom_origin(self):
        t = Tiling(window=Rect(0, 0, 10, 10), tile_side=2.0, origin=(1.0, 1.0))
        assert t.tile_rect((0, 0)).xmin == 1.0


class TestCachedDimensions:
    """``n_cols`` / ``n_rows`` are computed once and stay out of equality and hash."""

    @pytest.mark.parametrize(
        "window, side, origin",
        [
            (Rect(0, 0, 10, 6), 2.0, None),
            (Rect(0, 0, 10.9, 6.5), 2.0, None),
            (Rect(-3.5, 2.0, 11.2, 11.2), 4.0 / 3.0, None),
            (Rect(0, 0, 15, 15), 4.0 / 3.0, (0.5, -0.25)),
            (Rect(0, 0, 1e3, 7.0), 8.93, (-1.0, 3.0)),
            (Rect(0, 0, 1, 1), 2.0, None),
        ],
    )
    def test_counts_equal_the_formula(self, window, side, origin):
        t = Tiling(window=window, tile_side=side, origin=origin)
        ox, oy = t.origin
        assert t.n_cols == int(np.floor((window.xmax - ox) / side + 1e-9))
        assert t.n_rows == int(np.floor((window.ymax - oy) / side + 1e-9))
        assert (t.n_cols, t.n_rows) == (t.n_cols, t.n_rows)  # a second read agrees
        assert t.shape == (t.n_rows, t.n_cols)

    def test_equality_and_hash_ignore_the_cache(self):
        read = Tiling(window=Rect(0, 0, 15, 15), tile_side=4.0 / 3.0)
        fresh = Tiling(window=Rect(0, 0, 15, 15), tile_side=4.0 / 3.0)
        _ = read.n_cols, read.n_rows
        assert "n_cols" in vars(read) and "n_cols" not in vars(fresh)
        assert read == fresh and hash(read) == hash(fresh)
        assert hash(read) == hash((read.window, read.tile_side, read.origin))
        assert read != Tiling(window=Rect(0, 0, 15, 15), tile_side=1.0)


class TestTileGeometry:
    def test_tile_rect(self, tiling):
        r = tiling.tile_rect((2, 1))
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (4.0, 2.0, 6.0, 4.0)

    def test_tile_center(self, tiling):
        assert tiling.tile_center((0, 0)).tolist() == [1.0, 1.0]
        assert tiling.tile_center((4, 2)).tolist() == [9.0, 5.0]

    def test_contains_tile(self, tiling):
        assert tiling.contains_tile((4, 2))
        assert not tiling.contains_tile((5, 0))
        assert not tiling.contains_tile((0, -1))

    def test_tiles_iteration(self, tiling):
        tiles = list(tiling.tiles())
        assert len(tiles) == 15
        assert tiles[0] == (0, 0)
        assert tiles[-1] == (4, 2)

    def test_neighbours_interior_and_border(self, tiling):
        inner = tiling.neighbours((2, 1))
        assert set(inner) == {"right", "left", "top", "bottom"}
        corner = tiling.neighbours((0, 0))
        assert set(corner) == {"right", "top"}
        assert corner["right"] == (1, 0)


class TestPointAssignment:
    def test_tile_of_points(self, tiling):
        tiles = tiling.tile_of_points([(0.5, 0.5), (9.9, 5.9), (4.0, 2.0)])
        assert tiles[0].tolist() == [0, 0]
        assert tiles[1].tolist() == [4, 2]
        assert tiles[2].tolist() == [2, 1]  # boundary point goes to the upper tile

    def test_in_grid_mask(self, tiling):
        tiles = tiling.tile_of_points([(0.5, 0.5), (-1.0, 0.5), (10.5, 0.5)])
        assert tiling.in_grid_mask(tiles).tolist() == [True, False, False]

    def test_group_points_by_tile(self, tiling, rng):
        pts = rng.uniform(0, 10, size=(300, 2)) * np.array([1.0, 0.6])
        groups = tiling.group_points_by_tile(pts)
        total = sum(len(v) for v in groups.values())
        assert total == 300
        # Every grouped point actually lies in its tile's rectangle.
        for tile, idx in groups.items():
            assert tiling.tile_rect(tile).contains(pts[idx]).all()

    def test_every_tile_center_maps_to_itself(self, tiling):
        for tile in tiling.tiles():
            found = tiling.tile_of_points([tiling.tile_center(tile)])[0]
            assert tuple(found) == tile


class TestCoupling:
    def test_lattice_site_roundtrip(self, tiling):
        for tile in tiling.tiles():
            assert tiling.tile_of_site(tiling.lattice_site(tile)) == tile

    def test_lattice_site_shape_convention(self, tiling):
        # Site (row, col) indexes good_mask[row, col]; row = tile y index.
        assert tiling.lattice_site((3, 1)) == (1, 3)
