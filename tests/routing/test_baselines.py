"""Tests for the shortest-path routing reference."""

import numpy as np
import pytest

from repro.graphs.base import GeometricGraph
from repro.routing.baselines import shortest_path_route


@pytest.fixture
def chain_graph():
    pts = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    return GeometricGraph(pts, np.array([[0, 1], [1, 2], [2, 3]]))


class TestShortestPath:
    def test_weighted_route(self, chain_graph):
        result = shortest_path_route(chain_graph, 0, 3)
        assert result.success
        assert result.euclidean_length == pytest.approx(3.0)

    def test_hop_route(self, chain_graph):
        result = shortest_path_route(chain_graph, 0, 3, weighted=False)
        assert result.hops == 3

    def test_disconnected(self):
        pts = np.array([[0, 0], [1, 0], [5, 5]], dtype=float)
        g = GeometricGraph(pts, np.array([[0, 1]]))
        result = shortest_path_route(g, 0, 2)
        assert not result.success
