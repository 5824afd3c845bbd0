"""Empty event ticks are true no-ops across the whole incremental stack.

The serving daemon ticks on a timer, so most ticks carry no events; the
regression here pins that an empty diff costs nothing — no protocol
messages, no round accounting, no repair/recompute bookkeeping — in the
repair engine, in the topology tracker and through
``LiveWorld.apply`` with an empty coalesced batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tiles_udg import UDGTileSpec
from repro.distributed.repair import DistributedRepairEngine, RepairReport
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.dynamics.topology import TopologyTracker
from repro.geometry.primitives import Rect
from repro.serve.batching import coalesce_events
from repro.serve.world import LiveWorld, WorldConfig

_EMPTY = np.zeros(0, dtype=np.int64)


@pytest.fixture
def deployment(rng):
    return rng.uniform(0.0, 12.0, size=(120, 2))


def test_repair_engine_empty_update_is_noop(deployment):
    index = DynamicSpatialIndex(deployment, radius=1.0, backend="grid")
    engine = DistributedRepairEngine(index, UDGTileSpec.default(), Rect(0, 0, 12, 12))
    messages = engine.stats.messages_sent
    rounds = engine.stats.rounds
    edges_before = engine.result().edges.copy()

    report = engine.update()  # nothing dirty: consume's own (empty) stream
    assert report == RepairReport(0, 0, 0, 0, 0)
    assert not report.touched
    assert report.messages == 0
    assert engine.stats.messages_sent == messages
    assert engine.stats.rounds == rounds

    report = engine.update(dirty=_EMPTY, deleted=_EMPTY)  # explicit empty pair
    assert report == RepairReport(0, 0, 0, 0, 0)
    assert engine.stats.messages_sent == messages
    assert engine.stats.rounds == rounds
    assert np.array_equal(engine.result().edges, edges_before)


def test_udg_tracker_empty_explicit_pair_is_noop(deployment):
    index = DynamicSpatialIndex(deployment, radius=1.0, backend="grid")
    tracker = TopologyTracker(index, radius=1.0)
    edges_before = tracker.edges().copy()
    diff = tracker.update(dirty=_EMPTY, deleted=_EMPTY)
    assert len(diff.added) == 0 and len(diff.removed) == 0
    assert np.array_equal(tracker.edges(), edges_before)


def test_live_world_empty_tick_touches_nothing(deployment):
    world = LiveWorld(deployment, WorldConfig(window_xmax=12.0, window_ymax=12.0))
    messages = world.engine.stats.messages_sent
    rounds = world.engine.stats.rounds
    digest = world.digest()

    result = world.apply(coalesce_events([], world.is_alive))
    assert result.repair == RepairReport(0, 0, 0, 0, 0)
    assert result.n_operations == 0
    assert world.engine.stats.messages_sent == messages
    assert world.engine.stats.rounds == rounds
    assert world.digest() == digest
