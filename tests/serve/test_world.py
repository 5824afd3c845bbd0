"""LiveWorld: apply semantics, queries from maintained structures, state."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dynamics.incremental import DynamicSpatialIndex
from repro.dynamics.topology import TopologyTracker
from repro.serve.__main__ import main as serve_main
from repro.serve.batching import TickBatcher, coalesce_events
from repro.serve.protocol import Request
from repro.serve.server import ServeSession
from repro.serve.world import LiveWorld, WorldConfig


@pytest.fixture
def world(rng):
    positions = rng.uniform(0.0, 15.0, size=(80, 2))
    return LiveWorld(positions, WorldConfig())


def _apply(world, batcher, requests):
    events = []
    for request in requests:
        event, accepted = batcher.offer(request)
        assert accepted
        events.append(event)
    return world.apply(coalesce_events(events, world.is_alive))


class TestApply:
    def test_moves_deletes_inserts(self, world):
        batcher = TickBatcher()
        result = _apply(
            world,
            batcher,
            [
                Request(op="move", node=0, position=(1.0, 1.0)),
                Request(op="delete", node=1),
                Request(op="insert", position=(7.0, 7.0)),
            ],
        )
        assert result.applied_seq == 3
        assert result.inserted_ids == {3: 80}
        assert world.n_alive == 80  # -1 delete, +1 insert
        assert not world.is_alive(1)
        assert world.index.position_of(0).tolist() == [1.0, 1.0]
        assert world.index.position_of(80).tolist() == [7.0, 7.0]

    def test_applied_seq_tracks_rejected_events_too(self, world):
        batcher = TickBatcher()
        result = _apply(
            world,
            batcher,
            [
                Request(op="delete", node=2),
                Request(op="move", node=2, position=(0.0, 0.0)),  # dead: rejected
            ],
        )
        assert result.applied_seq == 2

    def test_allocated_ids_match_sequential_application(self, rng):
        positions = rng.uniform(0.0, 15.0, size=(10, 2))
        coalesced = LiveWorld(positions.copy(), WorldConfig())
        sequential = LiveWorld(positions.copy(), WorldConfig())
        requests = [
            Request(op="insert", position=(1.0, 1.0)),
            Request(op="delete", node=3),
            Request(op="insert", position=(2.0, 2.0)),
        ]
        batcher = TickBatcher()
        bulk = _apply(coalesced, batcher, requests)
        seq_batcher = TickBatcher()
        allocated = {}
        for request in requests:
            event, _ = seq_batcher.offer(request)
            result = sequential.apply(
                coalesce_events([event], sequential.is_alive)
            )
            allocated.update(result.inserted_ids)
        assert bulk.inserted_ids == allocated == {1: 10, 3: 11}


class TestQueries:
    def test_neighbours_respects_radius(self, world):
        batcher = TickBatcher()
        _apply(
            world,
            batcher,
            [
                Request(op="move", node=0, position=(5.0, 5.0)),
                Request(op="move", node=1, position=(5.3, 5.0)),
                Request(op="move", node=2, position=(14.9, 14.9)),
            ],
        )
        close = world.neighbours(0, radius=0.5)
        assert 1 in close and 2 not in close
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                world.neighbours(0, radius=bad)

    def test_route_between_good_tile_representatives(self, rng):
        # A dense deployment so tiles are good and the overlay is connected;
        # endpoints are picked from good tiles (routable by construction).
        positions = rng.uniform(0.0, 8.0, size=(600, 2))
        world = LiveWorld(positions, WorldConfig(window_xmax=8.0, window_ymax=8.0))
        reps = sorted(world.engine.result().representatives.values())
        assert len(reps) >= 2
        route = world.route(reps[0], reps[-1])
        assert route["success"] is True
        assert route["hops"] == len(route["node_path"]) - 1
        assert route["euclidean_length"] >= 0.0
        assert route["node_path"][0] == reps[0]
        assert route["node_path"][-1] == reps[-1]

    def test_route_from_bad_tile_fails_cleanly(self, rng):
        positions = rng.uniform(0.0, 8.0, size=(600, 2))
        world = LiveWorld(positions, WorldConfig(window_xmax=8.0, window_ymax=8.0))
        good = set(world.engine.result().representatives)
        tiles = world.engine.tiling.tile_of_points(world.index.positions())
        bad_rows = [
            i for i, tile in enumerate(map(tuple, tiles.tolist())) if tile not in good
        ]
        if not bad_rows:
            pytest.skip("every tile is good in this realisation")
        node = int(world.index.ids()[bad_rows[0]])
        route = world.route(node, node)
        assert route["success"] is False
        assert "not good" in route["reason"]

    def test_route_dead_endpoint_raises(self, world):
        _apply(world, TickBatcher(), [Request(op="delete", node=0)])
        with pytest.raises(ValueError, match="not alive"):
            world.route(0, 1)

    def test_coverage(self, world):
        events = np.array([[world.index.position_of(0)[0], world.index.position_of(0)[1]]])
        assert world.coverage(events, sensing_radius=0.5) == 1.0
        assert world.coverage(np.array([[100.0, 100.0]]), sensing_radius=0.5) == 0.0

    def test_coverage_at_a_radius_far_past_the_window(self, world):
        far = np.array([[7.5, 7.5], [-1e6, 3.0], [1e8, 1e8]])
        assert world.coverage(far, sensing_radius=1e9) == 1.0
        assert world.coverage(far, sensing_radius=20.0) == 1 / 3
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                world.coverage(far, sensing_radius=bad)

    def test_neighbours_at_a_radius_far_past_the_window(self, rng):
        # 60 nodes occupy far fewer cells than any stencil below, so the grid
        # visits its occupied cells, not the (2·reach+1)² stencil.
        positions = rng.uniform(0.0, 15.0, size=(60, 2))
        world = LiveWorld(positions, WorldConfig())
        session = ServeSession(world)
        for radius in (6.0, 100.0, 1e6, 1e12):
            for node in (0, 17, 59):
                gaps = np.hypot(*(positions - positions[node]).T)
                expected = [i for i in np.flatnonzero(gaps <= radius).tolist() if i != node]
                assert world.index.neighbours_of(node, radius).tolist() == expected
                query = {"op": "query", "kind": "neighbours", "node": node, "radius": radius}
                reply = json.loads(session.handle_line(json.dumps(query)).immediate)
                assert reply["neighbours"] == expected, (radius, node)
        assert len(expected) == 59


class TestMemoisedOverlay:
    def test_result_after_a_tick_equals_a_fresh_splice(self, rng):
        positions = rng.uniform(0.0, 8.0, size=(600, 2))
        world = LiveWorld(positions, WorldConfig(window_xmax=8.0, window_ymax=8.0))
        first = world.engine.result()
        assert world.engine.result() is first  # memoised between ticks
        batcher = TickBatcher()
        requests = [Request(op="move", node=i, position=(float(i % 8), 4.0)) for i in range(8)]
        requests += [Request(op="delete", node=20), Request(op="insert", position=(2.5, 2.5))]
        _apply(world, batcher, requests)
        after = world.engine.result()
        assert after is not first
        assert world.engine.matches_rebuild()
        # An empty update keeps the memoised result.
        empty = np.zeros(0, dtype=np.int64)
        world.engine.update(dirty=empty, deleted=empty)
        assert world.engine.result() is after

        clone = LiveWorld.from_state(world.state())
        reps = sorted(after.representatives.values())
        for source, target in zip(reps[:10], reps[::-1][:10]):
            assert world.route(source, target) == clone.route(source, target)

    def test_kept_adjacency_equals_a_fresh_build_over_a_storm(self):
        """The engine's overlay adjacency, kept up to date per re-spliced pair,
        equals one built from the spliced edges after every tick of a storm."""
        rng = np.random.default_rng(23)
        side = 8.0
        world = LiveWorld(
            rng.uniform(0.0, side, size=(700, 2)), WorldConfig(window_xmax=side, window_ymax=side)
        )
        batcher = TickBatcher()
        ticks, resplices = 40, 0
        overlay = world.engine.result()
        for _ in range(ticks):
            alive = world.index.ids()
            requests = []
            for node in rng.choice(alive, size=4, replace=False).tolist():
                step = rng.uniform(-0.05, 0.05, size=2)
                x, y = np.clip(world.index.position_of(node) + step, 0.0, side).tolist()
                requests.append(Request(op="move", node=node, position=(x, y)))
            if rng.random() < 0.2:
                requests.append(Request(op="delete", node=int(rng.choice(alive))))
            if rng.random() < 0.2:
                requests.append(Request(op="insert", position=tuple(rng.uniform(0.0, side, size=2))))
            _apply(world, batcher, requests)

            resplices += world.engine.result() is not overlay
            overlay = world.engine.result()
            # A fresh dict-of-lists in edge order: each list comes out
            # ascending, the order the kept rows must reproduce.
            fresh = {}
            for a, b in overlay.edges.tolist():
                fresh.setdefault(a, []).append(b)
                fresh.setdefault(b, []).append(a)
            assert world.engine.adjacency == fresh
            for tile in [*world.engine.tiling.tiles(), (-1, 0)]:  # and one off the grid
                assert world.engine.representative(tile) == overlay.representatives.get(tile)
            assert world.engine.matches_rebuild()
        assert 0 < resplices < ticks, resplices


class TestStateRoundTrip:
    def test_digest_identical_after_restore(self, world):
        _apply(
            world,
            TickBatcher(),
            [
                Request(op="move", node=0, position=(3.25, 4.75)),
                Request(op="delete", node=5),
                Request(op="insert", position=(9.5, 9.5)),
            ],
        )
        clone = LiveWorld.from_state(world.state())
        assert clone.digest() == world.digest()
        assert clone.applied_seq == world.applied_seq

    def test_restore_preserves_id_high_water_mark(self, world):
        _apply(world, TickBatcher(), [Request(op="insert", position=(1.0, 1.0))])
        clone = LiveWorld.from_state(world.state())
        original = _apply(world, TickBatcher(start_seq=2), [Request(op="insert", position=(2.0, 2.0))])
        restored = _apply(clone, TickBatcher(start_seq=2), [Request(op="insert", position=(2.0, 2.0))])
        assert original.inserted_ids == restored.inserted_ids
        assert world.digest() == clone.digest()

    def test_unknown_version_rejected(self, world):
        state = world.state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            LiveWorld.from_state(state)

    def test_snapshot_names_the_grid_index(self, world):
        state = world.state()
        assert state["config"]["backend"] == "grid"
        del state["config"]["backend"]  # snapshots that predate the key still load
        assert LiveWorld.from_state(state).digest() == world.digest()

    def test_snapshot_naming_another_index_is_refused(self, world):
        state = world.state()
        state["config"]["backend"] = "kdtree"
        with pytest.raises(ValueError, match="kdtree"):
            WorldConfig.from_payload(state["config"])
        with pytest.raises(ValueError, match="kdtree"):
            LiveWorld.from_state(state)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), float("-inf")])
class TestNonFiniteRadius:
    """A non-finite UDG radius is refused where it enters, naming the radius."""

    def test_world_config(self, radius):
        with pytest.raises(ValueError, match=f"radius must be finite, got {radius!r}"):
            WorldConfig(radius=radius)
        payload = WorldConfig().to_payload()
        payload["radius"] = radius
        with pytest.raises(ValueError, match=f"radius must be finite, got {radius!r}"):
            WorldConfig.from_payload(payload)

    def test_index_and_tracker(self, radius, rng):
        points = rng.uniform(0.0, 5.0, size=(20, 2))
        with pytest.raises(ValueError, match=f"radius must be finite, got {radius!r}"):
            DynamicSpatialIndex(points, radius=radius)
        index = DynamicSpatialIndex(points, radius=1.0)
        with pytest.raises(ValueError, match=f"radius must be finite.*got {radius!r}"):
            TopologyTracker(index, radius)

    def test_cli(self, radius, capsys):
        with pytest.raises(SystemExit) as exit_info:
            serve_main(["--stdio", f"--radius={radius!r}"])
        assert exit_info.value.code == 2
        assert f"radius must be a finite non-negative number, got '{radius!r}'" in (
            capsys.readouterr().err
        )
