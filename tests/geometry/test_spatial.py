"""Tests for the uniform grid spatial index."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.geometry.primitives import pairwise_distances
from repro.geometry.index import GridIndex
from repro.graphs.udg import udg_edges

coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


class TestGridIndex:
    def test_cell_of(self):
        idx = GridIndex(np.array([[0.5, 0.5]]), cell_size=1.0)
        assert idx.cell_of((0.5, 0.5)) == (0, 0)
        assert idx.cell_of((-0.5, 1.5)) == (-1, 1)

    def test_points_in_cell(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [1.5, 0.5]])
        idx = GridIndex(pts, cell_size=1.0)
        assert set(idx.points_in_cell((0, 0)).tolist()) == {0, 1}
        assert set(idx.points_in_cell((1, 0)).tolist()) == {2}
        assert idx.points_in_cell((5, 5)).size == 0

    def test_query_radius_matches_bruteforce(self, rng):
        pts = rng.uniform(0, 10, size=(300, 2))
        idx = GridIndex(pts, cell_size=1.0)
        center = (5.0, 5.0)
        expected = set(np.nonzero(np.linalg.norm(pts - center, axis=1) <= 1.7)[0].tolist())
        got = set(idx.query_radius(center, 1.7).tolist())
        assert got == expected

    def test_neighbours_excludes_self(self, rng):
        pts = rng.uniform(0, 5, size=(50, 2))
        idx = GridIndex(pts, cell_size=1.0)
        nbrs = idx.neighbours_of(0, radius=2.0)
        assert 0 not in nbrs
        nbrs_with_self = idx.neighbours_of(0, radius=2.0, include_self=True)
        assert 0 in nbrs_with_self

    def test_empty_point_set(self):
        idx = GridIndex(np.zeros((0, 2)), cell_size=1.0)
        assert len(idx) == 0
        assert idx.query_radius((0, 0), 5.0).size == 0

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((1, 2)), cell_size=0.0)

    def test_negative_radius_rejected(self):
        idx = GridIndex(np.zeros((1, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            idx.query_radius((0, 0), -1.0)

    def test_occupied_cells(self):
        pts = np.array([[0.5, 0.5], [3.5, 3.5]])
        idx = GridIndex(pts, cell_size=1.0)
        assert set(idx.occupied_cells()) == {(0, 0), (3, 3)}

    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=60),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_query_radius_property(self, coords, radius):
        """Grid query must agree with brute force for arbitrary inputs."""
        pts = np.array(coords)
        idx = GridIndex(pts, cell_size=2.0)
        center = tuple(pts[0])
        expected = set(np.nonzero(pairwise_distances(pts, np.array([center]))[:, 0] <= radius)[0].tolist())
        got = set(idx.query_radius(center, radius).tolist())
        assert got == expected


class TestBackendAgreement:
    """GridIndex and the cKDTree-based ``udg_edges`` must define the same UDG.

    Regression tests for the tolerance bug where ``query_radius`` used
    ``d² <= r² + 1e-12`` and therefore admitted boundary pairs strictly
    outside the radius that ``udg_edges`` rejects.
    """

    @staticmethod
    def _grid_edges(pts: np.ndarray, radius: float) -> set:
        idx = GridIndex(pts, cell_size=max(radius, 0.25))
        edges = set()
        for i in range(len(pts)):
            for j in idx.neighbours_of(i, radius):
                edges.add((min(i, int(j)), max(i, int(j))))
        return edges

    def test_pair_just_outside_radius_is_not_a_neighbour(self):
        # d = 1 + 4e-13: under the old slack this was an edge for GridIndex
        # but not for udg_edges — the two backends built different UDGs.
        pts = np.array([[0.0, 0.0], [1.0 + 4e-13, 0.0]])
        idx = GridIndex(pts, cell_size=1.0)
        assert 1 not in idx.query_radius((0.0, 0.0), 1.0)
        assert idx.neighbours_of(0, 1.0).size == 0
        assert udg_edges(pts, 1.0).shape == (0, 2)

    def test_pair_at_exact_radius_is_a_neighbour(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        idx = GridIndex(pts, cell_size=1.0)
        assert 1 in idx.query_radius((0.0, 0.0), 1.0)
        assert udg_edges(pts, 1.0).shape == (1, 2)

    def test_boundary_heavy_point_set_agrees_with_udg_edges(self):
        # Unit-spaced lattice (many pairs at exactly d = 1) plus adversarial
        # just-outside points and a random cloud.
        rng = np.random.default_rng(7)
        lattice = np.array([[float(i), float(j)] for i in range(4) for j in range(4)])
        adversarial = np.array([[0.0, 1.0 + 4e-13], [2.0 + 4e-13, 0.0]])
        cloud = rng.uniform(0.0, 4.0, size=(60, 2))
        pts = np.vstack([lattice, adversarial, cloud])
        expected = set(map(tuple, udg_edges(pts, 1.0).tolist()))
        assert self._grid_edges(pts, 1.0) == expected

    def test_zero_radius_returns_exact_coincidence_only(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.5 + 1e-9, 0.5], [2.0, 2.0]])
        idx = GridIndex(pts, cell_size=1.0)
        assert sorted(idx.query_radius((0.5, 0.5), 0.0).tolist()) == [0, 1]
        # Self excluded, near-coincident (d = 1e-9 > 0) excluded.
        assert idx.neighbours_of(0, 0.0).tolist() == [1]
        assert idx.neighbours_of(2, 0.0).size == 0
        # udg_edges returns no edges at radius 0 by definition.
        assert udg_edges(pts, 0.0).shape == (0, 2)
