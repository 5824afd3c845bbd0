"""Tests for routing lifted onto the SENS overlay."""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.tiles_base import DIRECTIONS
from repro.core.tiling import DIRECTION_OFFSETS
from repro.routing.overlay import expand_site_path, route_on_overlay


@pytest.fixture(scope="module")
def routable(udg_network_module):
    return udg_network_module


@pytest.fixture(scope="module")
def udg_network_module():
    from repro import Rect, build_udg_sens

    return build_udg_sens(intensity=25.0, window=Rect(0, 0, 16, 16), seed=21, build_base_graph=False)


@pytest.fixture(scope="module")
def emptied_tile(udg_network_module):
    """The routable deployment with every node of one good tile removed, and that tile."""
    from repro import build_udg_sens

    net = udg_network_module
    good = sorted(net.classification.good_tiles())
    tile = good[len(good) // 2]
    rect = net.tiling.tile_rect(tile)
    x, y = net.points[:, 0], net.points[:, 1]
    inside = (x >= rect.xmin) & (x <= rect.xmax) & (y >= rect.ymin) & (y <= rect.ymax)
    emptied = build_udg_sens(net.points[~inside], window=net.tiling.window, build_base_graph=False)
    return emptied, tile


def _two_distant_good_tiles(net, rng):
    tiles = [t for t in net.classification.good_tiles() if t in net.overlay.tile_representatives]
    tiles = sorted(tiles)
    return tiles[0], tiles[-1]


class TestRouteOnOverlay:
    def test_successful_route_fields(self, routable, rng):
        src, tgt = _two_distant_good_tiles(routable, rng)
        result = route_on_overlay(routable, src, tgt)
        assert result.success
        assert result.hops >= 1
        assert result.euclidean_length > 0
        assert result.power > 0
        assert result.stretch >= 1.0 - 1e-9

    def test_route_uses_only_overlay_edges(self, routable, rng):
        src, tgt = _two_distant_good_tiles(routable, rng)
        result = route_on_overlay(routable, src, tgt)
        graph = routable.overlay.graph
        for a, b in zip(result.node_path[:-1], result.node_path[1:]):
            assert graph.has_edge(int(a), int(b))

    def test_route_endpoints_are_representatives(self, routable, rng):
        src, tgt = _two_distant_good_tiles(routable, rng)
        result = route_on_overlay(routable, src, tgt)
        assert result.node_path[0] == routable.overlay.tile_representatives[src]
        assert result.node_path[-1] == routable.overlay.tile_representatives[tgt]

    def test_bad_tile_rejected(self, emptied_tile):
        net, bad = emptied_tile
        assert bad in net.tiling.tiles()
        assert bad not in net.classification.good_tiles()
        good = net.classification.good_tiles()[0]
        assert route_on_overlay(net, good, good).success
        with pytest.raises(ValueError, match="not a good tile"):
            route_on_overlay(net, bad, good)
        with pytest.raises(ValueError, match="not a good tile"):
            route_on_overlay(net, good, bad)

    def test_same_tile_route_is_trivial(self, routable):
        tile = routable.classification.good_tiles()[0]
        result = route_on_overlay(routable, tile, tile)
        assert result.success
        assert result.hops == 0

    def test_power_consistent_with_hops(self, routable, rng):
        """All overlay hops are <= 1 long, so power (beta=2) <= hop count."""
        src, tgt = _two_distant_good_tiles(routable, rng)
        result = route_on_overlay(routable, src, tgt, beta=2.0)
        assert result.power <= result.hops + 1e-9


class TestExpandSitePath:
    def test_single_site(self, routable):
        tile = routable.classification.good_tiles()[0]
        site = routable.tiling.lattice_site(tile)
        path = expand_site_path(routable, [site])
        assert path == [routable.overlay.tile_representatives[tile]]

    def test_empty_path(self, routable):
        assert expand_site_path(routable, []) == []

    def test_adjacent_tiles_expand_to_relay_chain(self, routable):
        good = set(routable.classification.good_tiles())
        # Find a pair of horizontally adjacent good tiles.
        pair = None
        for (c, r) in good:
            if (c + 1, r) in good:
                pair = ((c, r), (c + 1, r))
                break
        if pair is None:
            pytest.skip("no adjacent good tiles")
        sites = [routable.tiling.lattice_site(t) for t in pair]
        path = expand_site_path(routable, sites)
        # UDG chain: rep - E_right - E_left(neighbour) - rep = up to 4 distinct nodes.
        assert 2 <= len(path) <= 4
        assert path[0] == routable.overlay.tile_representatives[pair[0]]
        assert path[-1] == routable.overlay.tile_representatives[pair[1]]

    def test_shared_consecutive_roles_collapse(self):
        """An NN tile whose representative also wins its E_right region: that
        point holds two consecutive roles of the hop and appears once."""
        from repro import Rect, build_nn_sens
        from repro.core.tiles_nn import NNTileSpec
        from repro.core.tiling import Tiling

        spec = NNTileSpec.default()
        grid = spec.tile_rect().grid(400)
        masks = spec.classify_points(grid)
        both = grid[masks["C0"] & masks["E_right"]]
        shared = both[np.argmin(np.linalg.norm(both - spec.region_anchor("E_right"), axis=1))]
        window = Rect(0, 0, 2 * spec.tile_side, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = [tiling.tile_center((0, 0)) + shared]
        for tile in ((0, 0), (1, 0)):
            for name in spec.region_names:
                if tile == (1, 0) or name not in ("C0", "E_right"):
                    pts.append(tiling.tile_center(tile) + spec.region_anchor(name))
        net = build_nn_sens(np.asarray(pts), k=188, window=window, spec=spec, build_base_graph=False)
        record = net.classification.records[(0, 0)]
        assert record.good and record.relays["E_right"] == record.representative == 0
        path = expand_site_path(net, [(0, 0), (0, 1)])
        assert path == _expand_scalar(net, [(0, 0), (0, 1)])
        assert len(path) == 5
        assert all(a != b for a, b in zip(path[:-1], path[1:]))

    def test_non_adjacent_step_raises(self, routable):
        tile = routable.classification.good_tiles()[0]
        row, col = routable.tiling.lattice_site(tile)
        for jump in ((row, col + 2), (row + 1, col + 1), (row, col)):
            with pytest.raises(ValueError):
                expand_site_path(routable, [(row, col), jump])

    def test_step_off_the_grid_raises(self, routable):
        n_rows = routable.tiling.n_rows
        top = [t for t in routable.classification.good_tiles() if t[1] == n_rows - 1]
        if not top:
            pytest.skip("no good tile in the top row")
        col = top[0][0]
        with pytest.raises(ValueError):
            expand_site_path(routable, [(n_rows - 1, col), (n_rows, col), (n_rows + 1, col)])

    def test_step_into_bad_tile_raises(self, certificate_udg):
        net = certificate_udg
        good = set(net.classification.good_tiles())
        tile, neighbour = next(
            (tile, (tile[0] + dc, tile[1] + dr))
            for tile in sorted(good)
            for dc, dr in DIRECTION_OFFSETS.values()
            if net.tiling.contains_tile((tile[0] + dc, tile[1] + dr))
            and (tile[0] + dc, tile[1] + dr) not in good
        )
        with pytest.raises(ValueError):
            expand_site_path(net, [net.tiling.lattice_site(t) for t in (tile, neighbour)])


# -- certificates --------------------------------------------------------------


def _expand_scalar(network, site_path):
    """The per-hop expansion: each hop's relay chain read from the tile records,
    each point located by a scan of ``original_indices``, a node dropped when
    it repeats the previous one."""
    overlay, records, spec = network.overlay, network.classification.records, network.spec

    def node_of(original):
        return int(np.nonzero(overlay.original_indices == original)[0][0])

    if not site_path:
        return []
    tiles = [network.tiling.tile_of_site(site) for site in site_path]
    path = [overlay.tile_representatives[tiles[0]]]
    names = {offset: name for name, offset in DIRECTION_OFFSETS.items()}
    for a, b in zip(tiles[:-1], tiles[1:]):
        direction = names[(b[0] - a[0], b[1] - a[1])]
        chain = [records[a].relays[region] for region in spec.relay_chain(direction)]
        facing = spec.relay_chain(spec.facing_direction(direction))
        chain += [records[b].relays[region] for region in reversed(facing)]
        chain.append(records[b].representative)
        for original in chain:
            node = node_of(int(original))
            if node != path[-1]:
                path.append(node)
    return path


def _walk(network, start, moves):
    """A lattice walk over good tiles: each move picks among the good neighbours."""
    good = network.classification.good_tiles()
    good_set = set(good)
    tile = good[start % len(good)]
    sites = [network.tiling.lattice_site(tile)]
    for move in moves:
        options = [
            (tile[0] + DIRECTION_OFFSETS[d][0], tile[1] + DIRECTION_OFFSETS[d][1])
            for d in DIRECTIONS
        ]
        options = [t for t in options if t in good_set]
        if not options:
            break
        tile = options[move % len(options)]
        sites.append(network.tiling.lattice_site(tile))
    return sites


@pytest.fixture(scope="module")
def certificate_udg():
    """UDG-SENS below saturation (about 81% good tiles), so routes detour."""
    from repro import Rect, build_udg_sens

    return build_udg_sens(intensity=11.0, window=Rect(0, 0, 24, 24), seed=7, build_base_graph=False)


@pytest.fixture(scope="module")
def certificate_nn():
    """NN-SENS with the paper's k = 188 on 7×7 tiles; some pairs are disconnected."""
    from repro import Rect, build_nn_sens
    from repro.core.tiles_nn import NNTileSpec

    side = NNTileSpec.default().tile_side * 7
    return build_nn_sens(k=188, window=Rect(0, 0, side, side), seed=8, build_base_graph=False)


def _route_digest(network, seed, n_routes=50):
    """sha256 over every route's success, hops, node path, mesh path, probes and length."""
    good = network.classification.good_tiles()
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_routes):
        a, b = rng.choice(len(good), size=2, replace=False)
        r = route_on_overlay(network, good[a], good[b])
        rows.append(
            [
                r.success,
                r.hops,
                [int(n) for n in r.node_path],
                [[int(x) for x in site] for site in r.mesh_result.path],
                r.mesh_result.probes,
                round(r.euclidean_length, 9),
            ]
        )
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestRouteCertificates:
    """Route outputs pinned to the per-hop expansion and scanning lookup they replaced."""

    # Recorded with the per-hop expansion and the O(overlay) node scan.
    UDG_DIGEST = "ba6800f201d5f4d02362eb34b268b4e42a5eea33d2b33188a70b7ad9ebd9f8eb"
    NN_DIGEST = "3b1091c885e2928ceee8f8ff4fd3270fbf356f1aa605718749aa4e7e4b894726"

    def test_udg_routes_pinned(self, certificate_udg):
        assert _route_digest(certificate_udg, seed=3) == self.UDG_DIGEST

    def test_nn_routes_pinned(self, certificate_nn):
        assert _route_digest(certificate_nn, seed=3) == self.NN_DIGEST

    @settings(max_examples=60, deadline=None)
    @given(start=st.integers(0, 10**6), moves=st.lists(st.integers(0, 3), max_size=40))
    def test_expansion_matches_scalar_oracle_udg(self, certificate_udg, start, moves):
        sites = _walk(certificate_udg, start, moves)
        assert expand_site_path(certificate_udg, sites) == _expand_scalar(certificate_udg, sites)

    @settings(max_examples=60, deadline=None)
    @given(start=st.integers(0, 10**6), moves=st.lists(st.integers(0, 3), max_size=40))
    def test_expansion_matches_scalar_oracle_nn(self, certificate_nn, start, moves):
        sites = _walk(certificate_nn, start, moves)
        assert expand_site_path(certificate_nn, sites) == _expand_scalar(certificate_nn, sites)
