"""Tests for the k-nearest-neighbour graph builder."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.geometry.index import build_index
from repro.geometry.primitives import pairwise_distances
from repro.graphs.knn import _knn_cell_size, build_knn, knn_edges, knn_neighbour_indices

coord = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


class TestNeighbourIndices:
    def test_simple_line(self):
        pts = np.array([[0, 0], [1, 0], [3, 0]], dtype=float)
        nbrs = knn_neighbour_indices(pts, 1)
        assert nbrs[0, 0] == 1
        assert nbrs[1, 0] == 0
        assert nbrs[2, 0] == 1

    def test_excludes_self(self, rng):
        pts = rng.uniform(0, 5, size=(30, 2))
        nbrs = knn_neighbour_indices(pts, 3)
        for i in range(30):
            assert i not in nbrs[i]

    def test_padding_when_too_few_points(self):
        pts = np.array([[0, 0], [1, 0]], dtype=float)
        nbrs = knn_neighbour_indices(pts, 5)
        assert nbrs.shape == (2, 5)
        assert (nbrs[:, 1:] == -1).all()

    def test_k_zero(self):
        nbrs = knn_neighbour_indices(np.array([[0, 0], [1, 1]], dtype=float), 0)
        assert nbrs.shape == (2, 0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            knn_neighbour_indices(np.zeros((2, 2)), -1)

    @pytest.mark.parametrize("backend", ["kdtree", "grid"])
    def test_coincident_cluster_matches_per_row_filter(self, rng, backend):
        # Seven copies of one point with k=3: the 4-nearest query of a
        # cluster member can omit the member itself, so its row keeps the
        # first k hits instead of dropping itself.
        pts = np.vstack([np.repeat([[2.0, 2.0]], 7, axis=0), rng.uniform(0, 5, size=(20, 2))])
        k = 3
        got = knn_neighbour_indices(pts, k, backend=backend)
        idx = build_index(pts, backend=backend, cell_size=_knn_cell_size(pts, k)).query_nearest(
            pts, k + 1
        )
        expected = np.array([row[row != i][:k] for i, row in enumerate(idx)])
        assert np.array_equal(got, expected)
        if backend == "grid":  # index-order ties: 5 and 6 never see themselves
            assert got[5].tolist() == [0, 1, 2] and got[6].tolist() == [0, 1, 2]

    def test_self_outside_column_zero(self, monkeypatch):
        # Rows of a stub index: self first (row 0), self later (row 1), self
        # absent (row 2).  Only row 0 drops column 0; row 1 moves itself to
        # the back, row 2 keeps its first k hits.
        import repro.graphs.knn as knn_module

        hits = np.array([[0, 2, 1, 3], [2, 3, 1, 0], [0, 1, 3, 2], [3, 0, 1, 2]])

        class StubIndex:
            def query_nearest(self, centers, k):
                assert k == 4
                return hits

        monkeypatch.setattr(knn_module, "build_index", lambda *a, **kw: StubIndex())
        pts = np.arange(8, dtype=float).reshape(4, 2)
        got = knn_neighbour_indices(pts, 3)
        assert got.tolist() == [[2, 1, 3], [2, 3, 0], [0, 1, 3], [0, 1, 2]]

    @pytest.mark.parametrize("backend", ["kdtree", "grid"])
    def test_coincident_rows_match_stable_self_sort(self, rng, backend):
        # The stable argsort of the "is self" flags over every row is the
        # reference the per-row fast path must reproduce.
        clusters = np.repeat(rng.uniform(0, 5, size=(3, 2)), 5, axis=0)
        pts = np.vstack([clusters, rng.uniform(0, 5, size=(30, 2))])
        k = 6
        idx = build_index(pts, backend=backend, cell_size=_knn_cell_size(pts, k)).query_nearest(
            pts, k + 1
        )
        is_self = idx == np.arange(len(pts))[:, None]
        order = np.argsort(is_self, axis=1, kind="stable")[:, :k]
        expected = np.take_along_axis(idx, order, axis=1)
        assert np.array_equal(knn_neighbour_indices(pts, k, backend=backend), expected)
        assert (idx[:, 0] != np.arange(len(pts))).any()

    def test_nearest_first_ordering(self, rng):
        pts = rng.uniform(0, 5, size=(40, 2))
        nbrs = knn_neighbour_indices(pts, 4)
        d = pairwise_distances(pts)
        for i in range(40):
            dists = [d[i, j] for j in nbrs[i] if j >= 0]
            assert dists == sorted(dists)


class TestKnnEdges:
    def test_undirected_union_semantics(self):
        # Three collinear points: 2's nearest is 1, so edge (1,2) exists even though
        # 1's nearest is 0.
        pts = np.array([[0, 0], [1, 0], [3, 0]], dtype=float)
        edges = {tuple(e) for e in knn_edges(pts, 1)}
        assert (0, 1) in edges
        assert (1, 2) in edges

    def test_edges_unique_and_sorted(self, rng):
        pts = rng.uniform(0, 10, size=(80, 2))
        edges = knn_edges(pts, 3)
        assert (edges[:, 0] < edges[:, 1]).all()
        assert len(np.unique(edges, axis=0)) == len(edges)

    @given(st.lists(st.tuples(coord, coord), min_size=3, max_size=30), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_min_degree_at_least_k_property(self, coords, k):
        """Every node has degree >= min(k, n-1): it connects to its own k nearest."""
        pts = np.array(coords)
        # De-duplicate identical points to keep nearest-neighbour semantics clean.
        pts = np.unique(pts, axis=0)
        if len(pts) < 2:
            return
        g = build_knn(pts, k)
        expected_min = min(k, len(pts) - 1)
        assert g.degrees().min() >= expected_min


class TestBuildKnn:
    def test_mean_degree_between_k_and_2k(self, rng):
        pts = rng.uniform(0, 20, size=(400, 2))
        g = build_knn(pts, 5)
        mean_deg = g.degrees().mean()
        assert 5 <= mean_deg <= 10

    def test_larger_k_more_edges(self, rng):
        pts = rng.uniform(0, 20, size=(200, 2))
        assert build_knn(pts, 6).n_edges > build_knn(pts, 2).n_edges

    def test_name(self):
        g = build_knn(np.array([[0, 0], [1, 0]], dtype=float), 1)
        assert g.name == "NN(k=1)"
