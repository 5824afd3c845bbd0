"""A served tick's work is O(dirty): it touches only what the events touched.

One applied event must hand ``decide_tiles`` exactly the members of the
tiles it dirtied (the moved node's old and new tile, the deleted node's
tile), and the tracker must read back exactly the dirty and deleted nodes'
rows of its edge store — never the whole deployment.
"""

import numpy as np
import pytest

from repro.distributed import repair
from repro.serve.batching import PendingEvent, coalesce_events
from repro.serve.protocol import Request
from repro.serve.world import LiveWorld, WorldConfig


@pytest.fixture
def world():
    rng = np.random.default_rng(29)
    return LiveWorld(rng.uniform(0.0, 15.0, size=(900, 2)), WorldConfig())


@pytest.fixture
def recorded(world, monkeypatch):
    """The ids each decide_tiles call gets and the rows each store gather reads."""
    calls = {"decide": [], "gather": []}
    decide = repair.decide_tiles

    def spy_decide(points, ids, *args, **kwargs):
        calls["decide"].append(np.sort(np.asarray(ids)))
        return decide(points, ids, *args, **kwargs)

    store = world.tracker._store
    gather = store.gather

    def spy_gather(nodes):
        calls["gather"].append(np.sort(np.asarray(nodes)))
        return gather(nodes)

    monkeypatch.setattr(repair, "decide_tiles", spy_decide)
    monkeypatch.setattr(store, "gather", spy_gather)
    return calls


def _tile_members(world, tiles):
    ids = world.index.ids()
    tile_of = world.engine.tiling.tile_of_points(world.index.id_positions()[ids])
    wanted = np.array([tuple(t) in tiles for t in tile_of.tolist()], dtype=bool)
    return ids[wanted]


def _apply(world, request):
    batch = coalesce_events([PendingEvent(world.applied_seq + 1, request)], world.is_alive)
    return world.apply(batch)


def _tile(world, node):
    return tuple(world.engine.tiling.tile_of_points(world.index.id_positions()[[node]])[0].tolist())


@pytest.mark.parametrize("shift", [(0.05, 0.0), (1.5, -1.5)], ids=["same-tile", "cross-tile"])
def test_one_move_decides_only_the_dirty_tiles(world, recorded, shift):
    node = int(world.index.ids()[len(world.index) // 2])
    before = _tile(world, node)
    x, y = world.index.position_of(node)
    _apply(world, Request(op="move", node=node, position=(x + shift[0], y + shift[1])))
    dirty_tiles = {before, _tile(world, node)}
    assert len(recorded["decide"]) == 1
    assert np.array_equal(recorded["decide"][0], _tile_members(world, dirty_tiles))
    assert len(recorded["decide"][0]) < len(world.index) // 10
    assert [g.tolist() for g in recorded["gather"]] == [[node]]
    assert world.tracker.matches_recompute() and world.engine.matches_rebuild()


def test_one_delete_decides_only_its_tile(world, recorded):
    node = int(world.index.ids()[17])
    tile = _tile(world, node)
    _apply(world, Request(op="delete", node=node))
    assert len(recorded["decide"]) == 1
    assert np.array_equal(recorded["decide"][0], _tile_members(world, {tile}))
    assert node not in recorded["decide"][0]
    assert [g.tolist() for g in recorded["gather"]] == [[node]]
    assert world.tracker.matches_recompute() and world.engine.matches_rebuild()
