"""Tests for the GeometricGraph container."""

import numpy as np
import pytest

from repro.graphs.base import GeometricGraph


@pytest.fixture
def square_graph():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return GeometricGraph(pts, edges, name="square")


class TestConstruction:
    def test_counts(self, square_graph):
        assert square_graph.n_nodes == 4
        assert square_graph.n_edges == 4

    def test_duplicate_edges_collapsed(self):
        pts = np.array([[0, 0], [1, 0]], dtype=float)
        g = GeometricGraph(pts, np.array([[0, 1], [1, 0], [0, 1]]))
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            GeometricGraph(np.zeros((2, 2)), np.array([[0, 0]]))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            GeometricGraph(np.zeros((2, 2)), np.array([[0, 5]]))

    def test_empty_graph(self):
        g = GeometricGraph(np.zeros((0, 2)), np.zeros((0, 2), dtype=int))
        assert g.n_nodes == 0
        assert g.n_edges == 0
        assert g.degrees().size == 0
        assert g.edge_lengths().size == 0


class TestAccessors:
    def test_degrees(self, square_graph):
        assert square_graph.degrees().tolist() == [2, 2, 2, 2]

    def test_edge_lengths(self, square_graph):
        assert np.allclose(square_graph.edge_lengths(), 1.0)

    def test_neighbours_sorted(self, square_graph):
        assert square_graph.neighbours(0).tolist() == [1, 3]

    def test_has_edge(self, square_graph):
        assert square_graph.has_edge(0, 1)
        assert square_graph.has_edge(1, 0)
        assert not square_graph.has_edge(0, 2)

    def test_to_networkx(self, square_graph):
        g = square_graph.to_networkx()
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4
        assert g.edges[0, 1]["length"] == pytest.approx(1.0)
        assert g.nodes[2]["pos"] == (1.0, 1.0)


class TestSubgraph:
    def test_subgraph_keeps_internal_edges(self, square_graph):
        sub = square_graph.subgraph([0, 1, 2])
        assert sub.n_nodes == 3
        assert sub.n_edges == 2  # (0,1) and (1,2); edge to node 3 dropped

    def test_subgraph_reindexes(self, square_graph):
        sub = square_graph.subgraph([2, 3])
        assert sub.n_nodes == 2
        assert sub.n_edges == 1
        assert sub.edges.tolist() == [[0, 1]]

    def test_subgraph_invalid_index(self, square_graph):
        with pytest.raises(ValueError):
            square_graph.subgraph([0, 10])

    def test_with_name(self, square_graph):
        assert square_graph.with_name("renamed").name == "renamed"


class TestCanonicalEdges:
    @staticmethod
    def _points(n=30):
        return np.random.default_rng(5).uniform(0, 5, size=(n, 2))

    def test_canonical_input_stored_read_only_without_splice(self, monkeypatch):
        from repro.kernels import ops

        def no_splice(parts):
            raise AssertionError("canonical edges were spliced again")

        monkeypatch.setattr(ops, "splice_edges", no_splice)
        edges = np.array([[0, 1], [0, 7], [2, 3], [2, 29], [5, 6]], dtype=np.int64)
        g = GeometricGraph(self._points(), edges)
        assert np.array_equal(g.edges, edges)
        assert g.edges.dtype == np.int64
        assert not g.edges.flags.writeable
        assert not np.shares_memory(g.edges, edges)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0], [7, 0], [3, 2]],  # reversed
            [[0, 1], [0, 1], [2, 3]],  # duplicated
            [[2, 3], [0, 7], [0, 1]],  # unsorted
            [[0, 7], [0, 1], [1, 0], [3, 2], [2, 3]],  # all three
        ],
    )
    def test_non_canonical_rows_made_canonical(self, rows):
        g = GeometricGraph(self._points(), np.asarray(rows))
        expected = sorted({(min(a, b), max(a, b)) for a, b in rows})
        assert g.edges.tolist() == [list(e) for e in expected]
        assert not g.edges.flags.writeable

    @pytest.mark.parametrize(
        "rows", [[[0, 1], [2, 3]], [[3, 2], [1, 0]]], ids=["canonical", "spliced"]
    )
    def test_caller_mutation_does_not_reach_graph(self, rows):
        edges = np.asarray(rows, dtype=np.int64)
        g = GeometricGraph(self._points(), edges)
        before = g.edges.copy()
        edges[:] = [[4, 5], [6, 7]]
        assert np.array_equal(g.edges, before)

    def test_empty_edges(self):
        g = GeometricGraph(self._points(), np.zeros((0, 2), dtype=np.int64))
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
