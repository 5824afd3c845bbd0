"""``TileSpec.classify_points`` against each region predicate's own ``contains``.

``classify_points`` tests a part object shared by several regions once (the
four UDG relay regions all cut one annulus band out of the tile); these
tests pin its masks, bit for bit, to the predicates evaluated one by one and
to the relay regions' defining three-way intersection, on random points and
on points placed exactly on the annulus, disc and rectangle boundaries.
"""

import numpy as np
import pytest

from repro.core.tiles_base import DIRECTIONS
from repro.core.tiles_nn import NNTileSpec
from repro.core.tiles_udg import UDGTileSpec
from repro.geometry.predicates import AnnulusPredicate, DiscPredicate, RectPredicate
from repro.geometry.primitives import Disc

SPECS = {
    "udg-default": UDGTileSpec.default(),
    "udg-paper": UDGTileSpec.paper(),
    "nn": NNTileSpec.default(),
}


def _boundary_points(spec) -> np.ndarray:
    """Points on (or one ULP either side of) every circle and edge of the spec's regions."""
    half = spec.tile_side / 2.0
    radii = [half]
    if isinstance(spec, UDGTileSpec):
        radii += [spec.rep_radius, spec.connection_radius - spec.rep_radius]
        radii += [half - spec.relay_reach, half + spec.relay_reach]
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    pts = [np.column_stack([r * np.cos(theta), r * np.sin(theta)]) for r in radii]
    # Axis points are exact: the circle and edge crossings on both axes.
    for r in radii:
        for sign in (-1.0, 1.0):
            pts.append(np.array([[sign * r, 0.0], [0.0, sign * r]]))
    # Tile edges and corners, and the edge midpoints the relay discs sit on.
    edge = np.linspace(-half, half, 17)
    pts += [np.column_stack([edge, np.full_like(edge, s * half)]) for s in (-1.0, 1.0)]
    pts += [np.column_stack([np.full_like(edge, s * half), edge]) for s in (-1.0, 1.0)]
    exact = np.concatenate(pts)
    return np.concatenate(
        [exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)]
    )


def _points(spec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = spec.tile_side / 2.0
    return np.concatenate(
        [rng.uniform(-1.1 * half, 1.1 * half, size=(2000, 2)), _boundary_points(spec)]
    )


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("seed", [0, 1])
def test_masks_equal_each_predicates_contains(name, seed):
    spec = SPECS[name]
    pts = _points(spec, seed)
    masks = spec.classify_points(pts)
    preds = spec.region_predicates()
    assert list(masks) == list(spec.region_names)
    for region, pred in preds.items():
        expected = pred.contains(pts)
        assert masks[region].dtype == bool
        assert np.array_equal(masks[region], expected), region


@pytest.mark.parametrize("name", ["udg-default", "udg-paper"])
def test_udg_relay_masks_equal_the_three_way_intersection(name):
    """Each relay region is annulus ∩ near-edge disc ∩ tile, whatever the nesting."""
    spec = SPECS[name]
    pts = _points(spec, 2)
    masks = spec.classify_points(pts)
    annulus = AnnulusPredicate(
        0.0, 0.0, inner=spec.rep_radius, outer=spec.connection_radius - spec.rep_radius
    ).contains(pts)
    inside = RectPredicate(spec.tile_rect()).contains(pts)
    assert np.array_equal(masks["C0"], Disc(0.0, 0.0, spec.rep_radius).contains(pts))
    for direction in DIRECTIONS:
        mx, my = spec.edge_midpoint(direction)
        near = DiscPredicate(Disc(float(mx), float(my), spec.relay_reach)).contains(pts)
        assert np.array_equal(masks[f"E_{direction}"], annulus & near & inside), direction
    if name == "udg-default":
        # The boundary set really lands in every relay region.
        assert all(masks[f"E_{d}"].any() for d in DIRECTIONS)


def test_udg_relay_regions_share_one_band_object():
    preds = UDGTileSpec.default().region_predicates()
    bands = {id(preds[f"E_{d}"].parts[0]) for d in DIRECTIONS}
    assert len(bands) == 1
