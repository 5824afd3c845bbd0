"""Certificates for the exact prefilters in front of the closed-ball predicates.

``KDTreeIndex.query_pairs`` decides most candidate pairs on their squared
distance and sends only an ULP band around ``r²`` to ``within_ball``;
``DiscIntersectionPredicate.contains`` evaluates only the points inside a
conservative box of its own.  Both must answer exactly as the unfiltered
predicate does, so each test here compares against that predicate on inputs
built to sit on the prefilter's edges.
"""

import numpy as np
import pytest

from repro.core.tiles_nn import NNTileSpec
from repro.geometry.index import BACKENDS, _pairs_within_ball, build_index, within_ball
from repro.geometry.predicates import DiscIntersectionPredicate
from repro.geometry.primitives import Rect

EPS = np.finfo(np.float64).eps


def _hypot_pairs(pts: np.ndarray, radius: float) -> np.ndarray:
    """Every ``i < j`` pair whose ``hypot`` distance is at most ``radius``."""
    i, j = np.triu_indices(len(pts), k=1)
    keep = within_ball(pts[i], pts[j], radius)
    return np.column_stack([i[keep], j[keep]]).astype(np.int64)


def _boundary_points(radius: float) -> np.ndarray:
    """Pairs at ``radius·(1 + j·ε)`` for j across the prefilter's ULP band.

    ``1e-12`` is about 4 500 ε, so the offsets reach past both band edges on
    either side.  Axis-aligned pairs start at x = 0, so their difference is
    the offset itself, to the ULP; 3-4-5 pairs round in both coordinates.
    Pairs sit ten radii apart, so no two of them are neighbours.
    """
    rows = []
    steps = np.concatenate([np.arange(-12, 13), np.arange(-9000, 9001, 750)])
    for k, j in enumerate(steps):
        d = radius * (1.0 + j * EPS)
        y = 10.0 * radius * k
        rows += [[0.0, y], [d, y]]
        x = 10.0 * radius * (k + 2)
        rows += [[x, 0.0], [x + 0.6 * d, 0.8 * d]]
    return np.asarray(rows, dtype=np.float64)


class TestQueryPairsPrefilter:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("radius", [1.0, 0.37, 2.5e-3, 7.3e4])
    def test_boundary_band(self, backend, radius):
        pts = _boundary_points(radius)
        got = build_index(pts, radius=radius, backend=backend).query_pairs(radius)
        expected = _hypot_pairs(pts, radius)
        assert np.array_equal(got, expected)
        # The band really is populated: some pairs in it are admitted, some not.
        assert 0 < len(expected) < len(pts) // 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_subnormal_offsets_at_tiny_radius(self, backend):
        tiny = 5e-324
        radius = 40 * tiny
        offsets = np.arange(0, 120, 3) * tiny
        pts = np.column_stack([offsets, offsets[::-1]])
        pts = np.vstack([pts, pts + 1e-300, [[0.0, 0.0]]])
        # A subnormal grid cell would span too many cells; any cell works.
        index = build_index(pts, radius=radius, backend=backend, cell_size=1.0)
        got = index.query_pairs(radius)
        expected = _hypot_pairs(pts, radius)
        assert np.array_equal(got, expected)
        assert len(expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_coordinates_near_1e150(self, backend, rng):
        radius = 1e140
        base = rng.uniform(1e150, 1.0000000001e150, size=(60, 2))
        pts = np.vstack([base, base[:20] + [radius, 0.0], base[20:40] + [0.0, radius * (1 - EPS)]])
        got = build_index(pts, radius=radius, backend=backend).query_pairs(radius)
        assert np.array_equal(got, _hypot_pairs(pts, radius))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("radius", [0.0, 0.5])
    def test_coincident_points(self, backend, radius, rng):
        pts = rng.uniform(0, 4, size=(40, 2))
        pts = np.vstack([pts, pts[:10], pts[:3], [[1.0, 1.0]] * 4])
        got = build_index(pts, radius=max(radius, 1.0), backend=backend).query_pairs(radius)
        expected = _hypot_pairs(pts, radius)
        assert np.array_equal(got, expected)
        if radius == 0.0:
            assert len(expected) == 10 + 3 + 3 + 6

    @pytest.mark.parametrize("radius", [0.0, 1e-200, 1e-149, 1.0, 1e151, 1e200])
    def test_mask_matches_within_ball_at_every_radius(self, radius, rng):
        # Differences drawn around each radius, so the squared path, the
        # band and the hypot-only fallback all see pairs on both sides.
        n = 4000
        scale = radius if radius > 0 else 1e-310
        x = np.concatenate([[0.0], rng.uniform(-2, 2, size=n) * scale])
        y = np.concatenate([[0.0], rng.uniform(-2, 2, size=n) * scale])
        near = rng.choice(n, size=400, replace=False) + 1
        steps = np.concatenate([np.arange(-100, 100), rng.integers(-6000, 6000, size=200)])
        x[near] = radius * (1.0 + steps * EPS)
        y[near] = 0.0
        i = np.zeros(n, dtype=np.int64)
        j = np.arange(1, n + 1, dtype=np.int64)
        got = _pairs_within_ball(x, y, i, j, radius)
        pts = np.column_stack([x, y])
        assert np.array_equal(got, within_ball(pts[i], pts[j], radius))


def _old_contains(pred: DiscIntersectionPredicate, pts: np.ndarray) -> np.ndarray:
    """The predicate without its box: every point against every anchor."""
    diff = pts[:, None, :] - pred.anchors[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.all(d2 <= pred.radii[None, :] ** 2 + 1e-12, axis=1)


def _hugging(lo: np.ndarray, hi: np.ndarray, rng) -> np.ndarray:
    """Points within a few ULPs of each edge of the box ``[lo, hi]``."""
    rows = []
    for axis in (0, 1):
        for edge in (lo[axis], hi[axis]):
            for steps in range(-4, 5):
                value = edge
                for _ in range(abs(steps)):
                    value = np.nextafter(value, np.inf if steps > 0 else -np.inf)
                other = rng.uniform(lo[1 - axis], hi[1 - axis], size=6)
                block = np.empty((6, 2))
                block[:, axis] = value
                block[:, 1 - axis] = other
                rows.append(block)
    return np.vstack(rows)


class TestDiscIntersectionBox:
    @pytest.mark.parametrize("direction", ["right", "left", "top", "bottom"])
    def test_nn_e_regions(self, direction, rng):
        spec = NNTileSpec.default()
        core = spec.region_predicates()[f"E_{direction}"].parts[0]
        half = spec.tile_side
        pts = np.vstack(
            [
                rng.uniform(-half, half, size=(6000, 2)),  # inside and outside the tile
                _hugging(core._box_lo, core._box_hi, rng),
                core.anchors,
            ]
        )
        got = core.contains(pts)
        assert np.array_equal(got, _old_contains(core, pts))
        assert got.any() and not got.all()

    @pytest.mark.parametrize("radius", [0.0, 1e-7, 0.8])
    def test_single_anchor_edges(self, radius, rng):
        # One anchor: the region is the disc of radius sqrt(r² + 1e-12) and
        # touches its box, so points on the disc's rim hug the box edges.
        center = np.array([0.3, -1.7])
        pred = DiscIntersectionPredicate(center[None, :], radius, Rect(-5, -5, 5, 5))
        reach = np.sqrt(radius**2 + 1e-12)
        rim = []
        for j in range(-8, 9):
            d = reach * (1.0 + j * EPS)
            rim += [center + [d, 0.0], center - [d, 0.0], center + [0.0, d], center - [0.0, d]]
        pts = np.vstack([np.asarray(rim), _hugging(pred._box_lo, pred._box_hi, rng)])
        got = pred.contains(pts)
        assert np.array_equal(got, _old_contains(pred, pts))
        assert got.any() and not got.all()

    def test_per_anchor_radii_and_clipped_bounds(self, rng):
        anchors = rng.uniform(-1, 1, size=(40, 2))
        radii = rng.uniform(1.5, 3.0, size=40)
        # The bounds argument is clipped tighter than the region on purpose:
        # the box must not come from it.
        pred = DiscIntersectionPredicate(anchors, radii, Rect(-0.1, -0.1, 0.1, 0.1))
        pts = np.vstack([rng.uniform(-4, 4, size=(5000, 2)), _hugging(pred._box_lo, pred._box_hi, rng)])
        got = pred.contains(pts)
        assert np.array_equal(got, _old_contains(pred, pts))
        assert (got & (np.abs(pts) > 0.1).any(axis=1)).any()

    def test_empty_input_and_empty_box(self):
        pred = DiscIntersectionPredicate(np.array([[0.0, 0.0], [10.0, 0.0]]), 1.0, Rect(0, 0, 1, 1))
        assert pred.contains(np.zeros((0, 2))).shape == (0,)
        pts = np.array([[5.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
        assert not pred.contains(pts).any()
        assert np.array_equal(pred.contains(pts), _old_contains(pred, pts))
