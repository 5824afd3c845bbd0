"""The decision certificate: decide_tiles equals the scalar per-tile oracle.

:func:`repro.core.goodness.decide_tiles` makes every tile decision (region
membership, elections, goodness) in one vectorised pass for the centralised
classifier, the repair engine and the shard workers.  The message-passing
build decides tile by tile through
:func:`~repro.distributed.construct.region_members_of_tile` →
:func:`~repro.distributed.construct.elect_tile_leaders` →
:func:`~repro.distributed.construct.tile_goodness`.  The two must agree tile
for tile over any id subset — including coincident points, points exactly on
tile and window edges, and ids whose point lies off the grid.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.core.goodness import MISSING, OVERCROWDED, decide_tiles
from repro.core.tiles_nn import NNTileSpec
from repro.core.tiles_udg import UDGTileSpec
from repro.core.tiling import Tiling
from repro.distributed.construct import elect_tile_leaders, region_members_of_tile, tile_goodness
from repro.distributed.leader_election import elect_leader_distributed
from repro.distributed.network import MessageNetwork
from repro.geometry.primitives import Rect

UDG = UDGTileSpec.default()
NN = NNTileSpec.default()
NN_K = 24  # cap k // 2 = 12: a whole tile of 9 regions fits, a repeated one overflows


def _world(spec, n_tiles):
    side = n_tiles * spec.tile_side
    return Tiling(window=Rect(0.0, 0.0, side, side), tile_side=spec.tile_side)


def _points(spec, n_tiles):
    """Points that stress the decisions.

    Whole tiles of jittered region anchors (so tiles turn good, or overcrowd
    under a cap), stray points, points exactly on tile and window edges or off
    the grid, and verbatim repeats (coincident nodes); then an id subset.
    """
    tiling = _world(spec, n_tiles)
    side = tiling.window.xmax
    edges = [i * spec.tile_side for i in range(n_tiles + 1)] + [side, -spec.tile_side]
    anchors = [
        [tiling.tile_center((col, row)) + spec.region_anchor(name) for name in spec.region_names]
        for col in range(n_tiles)
        for row in range(n_tiles)
    ]
    jitter = st.floats(-0.02 * spec.tile_side, 0.02 * spec.tile_side)

    def near(anchor):
        return st.tuples(jitter, jitter).map(lambda d: (float(anchor[0] + d[0]), float(anchor[1] + d[1])))

    whole_tile = st.sampled_from(anchors).flatmap(lambda tile: st.tuples(*map(near, tile)))
    anywhere = st.tuples(st.floats(-1.0, side + 1.0), st.floats(-1.0, side + 1.0))
    on_edge = st.tuples(st.sampled_from(edges), st.floats(-1.0, side + 1.0)).flatmap(
        lambda t: st.sampled_from([t, (t[1], t[0])])
    )
    strays = st.lists(st.one_of(anywhere, on_edge), max_size=30)
    points = st.tuples(st.lists(whole_tile, max_size=2 * n_tiles), strays).map(
        lambda parts: [p for tile in parts[0] for p in tile] + parts[1]
    )
    return points.map(lambda pts: pts + pts[: len(pts) // 4]).flatmap(
        lambda pts: st.tuples(st.just(pts), st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    )


def _assert_matches_oracle(pts, subset, spec, tiling, k):
    points = np.asarray(pts, dtype=np.float64).reshape(len(pts), 2)
    ids = np.flatnonzero(np.asarray(subset, dtype=bool))
    cap = spec.max_points_per_tile(k)
    names = list(spec.region_names)
    decisions = decide_tiles(points, ids, tiling, spec, k)

    tiles = tiling.tile_of_points(points[ids]) if ids.size else np.zeros((0, 2), dtype=np.int64)
    groups = {}
    for node, tile, in_grid in zip(ids.tolist(), tiles.tolist(), tiling.in_grid_mask(tiles)):
        if in_grid:
            groups.setdefault(tuple(tile), []).append(node)
    decided_order = [tuple(t) for t in decisions.tiles.tolist()]
    assert decided_order == sorted(groups, key=lambda t: (t[1], t[0]))

    assert decisions.member_ids.tolist() == [node for tile in decided_order for node in groups[tile]]
    assert decisions.members.tolist() == [len(groups[tile]) for tile in decided_order]
    for t, tile in enumerate(decided_order):
        member_idx = np.asarray(groups[tile], dtype=np.int64)
        center = tiling.tile_center(tile)
        regions = region_members_of_tile(points, member_idx, center, spec)
        leaders = elect_tile_leaders(points, regions, center, spec)
        good, present = tile_goodness(spec, leaders, len(member_idx), cap)
        assert decisions.region_counts[t].tolist() == [len(regions[name]) for name in names]
        assert {
            name: leader for name, leader in zip(names, decisions.leaders[t].tolist()) if leader >= 0
        } == leaders
        assert bool(decisions.good[t]) == good
        code = int(decisions.failure[t])
        if good:
            assert code == 0
            relay_names = [name for name in names if name != spec.representative_region]
            assert present == {name: leaders[name] for name in relay_names}
        elif code == OVERCROWDED:
            assert cap is not None and len(member_idx) > cap
        else:
            first_missing = [name for name in spec.required_regions if not regions[name]][0]
            assert spec.required_regions[code - MISSING] == first_missing


class TestDecisionsMatchOracle:
    @given(data=_points(UDG, 3))
    @settings(max_examples=60, deadline=None)
    def test_udg(self, data):
        pts, subset = data
        _assert_matches_oracle(pts, subset, UDG, _world(UDG, 3), None)

    @given(data=_points(NN, 2))
    @settings(max_examples=60, deadline=None)
    def test_nn_with_binding_cap(self, data):
        pts, subset = data
        _assert_matches_oracle(pts, subset, NN, _world(NN, 2), NN_K)

    def test_empty_input(self):
        tiling = _world(UDG, 2)
        decisions = decide_tiles(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), tiling, UDG)
        assert decisions.tiles.shape == (0, 2)
        assert decisions.leaders.shape == (0, len(UDG.region_names))
        assert decisions.good.size == 0

    def test_off_grid_ids_are_ignored(self):
        tiling = _world(UDG, 2)
        pts = np.array([[-0.1, 0.5], [0.5, tiling.window.ymax + 0.1], [0.0, 0.0]])
        decisions = decide_tiles(pts, np.arange(3), tiling, UDG)
        assert decisions.tiles.tolist() == [[0, 0]]
        assert decisions.member_ids.tolist() == [2]


class TestOneULPNearTie:
    """Two C0 candidates one ULP apart in d2 whose Euclidean norms round equal.

    The higher id is nearer, so the (squared distance, id) rule picks it, while
    a (norm, id) rule would see a tie and pick the lower id.
    """

    tiling = _world(UDG, 1)
    anchor = tiling.tile_center((0, 0)) + UDG.region_anchor("C0")
    pts = np.array(
        [[0.7574861371453905, 0.7269972193772372], [0.75748613714539, 0.7269972193772378]]
    )

    def test_premise(self):
        dx, dy = (self.pts - self.anchor).T
        d2 = dx * dx + dy * dy
        assert d2[1] == np.nextafter(d2[0], -np.inf)
        assert np.linalg.norm(self.pts[0] - self.anchor) == np.linalg.norm(self.pts[1] - self.anchor)

    def test_every_election_picks_the_nearer_higher_id(self):
        decisions = decide_tiles(self.pts, np.arange(2), self.tiling, UDG)
        assert decisions.region_counts[0, 0] == 2
        assert decisions.leaders[0, 0] == 1

        center = self.tiling.tile_center((0, 0))
        regions = region_members_of_tile(self.pts, np.arange(2), center, UDG)
        assert elect_tile_leaders(self.pts, regions, center, UDG)["C0"] == 1

        net = MessageNetwork(self.pts, radio_range=5.0)
        assert elect_leader_distributed(net, [0, 1], self.anchor) == 1
