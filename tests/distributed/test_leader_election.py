"""Tests for the region leader election."""

import numpy as np
import pytest

from repro.core.goodness import decide_tiles
from repro.core.tiles_udg import UDGTileSpec
from repro.core.tiling import Tiling
from repro.distributed.leader_election import elect_leader_distributed, election_key
from repro.distributed.network import MessageNetwork
from repro.geometry.primitives import Rect


class TestElectionKey:
    def test_key_ordering(self):
        pts = np.array([[0, 0], [2, 0]], dtype=float)
        anchor = np.array([0.5, 0.0])
        assert election_key(pts, 0, anchor) < election_key(pts, 1, anchor)

    def test_tie_break_by_index(self):
        pts = np.array([[1, 0], [-1, 0]], dtype=float)
        anchor = np.zeros(2)
        assert election_key(pts, 0, anchor) < election_key(pts, 1, anchor)


class TestDistributedElection:
    def test_single_member_elects_itself_without_messages(self):
        net = MessageNetwork(np.array([[0, 0]], dtype=float))
        winner = elect_leader_distributed(net, [0], anchor=np.zeros(2))
        assert winner == 0
        assert net.stats.messages_sent == 0

    def test_closest_to_anchor_wins(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]], dtype=float)
        net = MessageNetwork(pts, radio_range=2.0)
        winner = elect_leader_distributed(net, [0, 1, 2], anchor=np.array([0.55, 0.0]))
        assert winner == 2

    def test_message_count_quadratic_in_members(self):
        pts = np.array([[0, 0], [0.1, 0], [0.2, 0], [0.3, 0]], dtype=float)
        net = MessageNetwork(pts, radio_range=2.0)
        elect_leader_distributed(net, [0, 1, 2, 3], anchor=np.zeros(2))
        assert net.stats.messages_sent == 4 * 3

    def test_empty_membership_rejected(self):
        net = MessageNetwork(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            elect_leader_distributed(net, [], anchor=np.zeros(2))

    def test_agrees_with_centralized_rule(self, rng):
        """The distributed election and the centralized decide_tiles pick the same node."""
        spec = UDGTileSpec.default()
        tiling = Tiling(window=Rect(0, 0, spec.tile_side, spec.tile_side), tile_side=spec.tile_side)
        anchor = tiling.tile_center((0, 0)) + spec.region_anchor("C0")
        pts = anchor + rng.uniform(-0.2, 0.2, size=(12, 2))  # all inside C0
        members = np.arange(12)
        net = MessageNetwork(pts, radio_range=5.0)
        distributed = elect_leader_distributed(net, members, anchor)
        decisions = decide_tiles(pts, members, tiling, spec)
        assert decisions.region_counts[0, 0] == 12
        assert distributed == decisions.leaders[0, 0]
