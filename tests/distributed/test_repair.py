"""Repair engine vs from-scratch distributed_build.

The acceptance contract of :mod:`repro.distributed.repair`: after ANY
interleaving of moves, inserts and deletes on the underlying dynamic index,
the engine's spliced result equals a from-scratch
:func:`~repro.distributed.construct.distributed_build` over the surviving
positions — same good tiles, same representatives and relays, same overlay
edges (modulo the id ↔ compact-row mapping).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.tiles_nn import NNTileSpec
from repro.core.tiles_udg import UDGTileSpec
from repro.distributed import DistributedRepairEngine, distributed_build, repair_build
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.geometry.primitives import Rect

WINDOW = Rect(0.0, 0.0, 8.0, 8.0)
SPEC = UDGTileSpec.default()

coord = st.floats(-0.5, 8.5, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
operation = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 10**6), point),
    st.tuples(st.just("insert"), st.just(0), point),
    st.tuples(st.just("delete"), st.integers(0, 10**6), point),
)


def _assert_engine_matches_scratch(engine, index, spec, window, k=None):
    """Engine result == distributed_build over the compacted survivors."""
    got = engine.result()
    ids = index.ids()
    scratch = distributed_build(index.positions(), spec, window, k=k, radio_range=None)
    assert set(got.good_tiles) == set(scratch.good_tiles)
    assert got.representatives == {
        tile: int(ids[rep]) for tile, rep in scratch.representatives.items()
    }
    assert got.relays == {
        tile: {name: int(ids[relay]) for name, relay in relays.items()}
        for tile, relays in scratch.relays.items()
    }
    expected_edges = (
        ids[scratch.edges] if len(scratch.edges) else np.zeros((0, 2), dtype=np.int64)
    )
    assert np.array_equal(got.edges, expected_edges)


class TestRepairEqualsRebuild:
    @given(
        points=st.lists(point, min_size=0, max_size=40),
        ops=st.lists(operation, max_size=25),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_update_interleavings(self, points, ops):
        pts = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
        index = DynamicSpatialIndex(pts, radius=SPEC.connection_radius)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)
        for op, raw_id, xy in ops:
            alive = index.ids()
            if op == "insert":
                index.insert(np.array([xy]))
            elif len(alive):
                node = int(alive[raw_id % len(alive)])
                if op == "move":
                    index.move([node], np.array([xy]))
                else:
                    index.delete([node])
            engine.update()
            _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)

    def test_dense_mobility_and_churn_session(self, rng):
        pts = rng.uniform(0, 8, size=(250, 2))
        index = DynamicSpatialIndex(pts, radius=SPEC.connection_radius)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        for step in range(12):
            ids = index.ids()
            movers = rng.choice(ids, size=min(25, len(ids)), replace=False)
            rows = np.searchsorted(ids, movers)
            index.move(
                movers, index.positions()[rows] + rng.normal(0, 0.35, size=(len(movers), 2))
            )
            if step % 2 == 0:
                index.insert(rng.uniform(0, 8, size=(4, 2)))
            if step % 3 == 1:
                index.delete(rng.choice(index.ids(), size=6, replace=False))
            report = engine.update()
            assert report.touched
            _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)

    def test_nn_spec_with_occupancy_cap(self, rng):
        spec = NNTileSpec(a=0.3)
        window = Rect(0.0, 0.0, 2.0 * spec.tile_side, 2.0 * spec.tile_side)
        pts = rng.uniform(0, 2.0 * spec.tile_side, size=(120, 2))
        index = DynamicSpatialIndex(pts, radius=spec.tile_side)
        engine = DistributedRepairEngine(index, spec, window, k=6)
        _assert_engine_matches_scratch(engine, index, spec, window, k=6)
        for _ in range(6):
            ids = index.ids()
            movers = rng.choice(ids, size=15, replace=False)
            rows = np.searchsorted(ids, movers)
            index.move(
                movers,
                index.positions()[rows] + rng.normal(0, spec.tile_side / 4, size=(15, 2)),
            )
            index.delete(rng.choice(index.ids(), size=3, replace=False))
            index.insert(rng.uniform(0, 2.0 * spec.tile_side, size=(3, 2)))
            engine.update()
            _assert_engine_matches_scratch(engine, index, spec, window, k=6)


class TestRepairLocality:
    def test_noop_update_reports_zero_work(self, rng):
        pts = rng.uniform(0, 8, size=(60, 2))
        index = DynamicSpatialIndex(pts, radius=1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        report = engine.update()
        assert not report.touched
        assert report == type(report)(0, 0, 0, 0, 0)
        assert engine.stats.rounds == 5  # only the initial pass ran
        assert engine.matches_rebuild()

    def test_one_sided_diff_arguments_rejected(self, rng):
        from repro.dynamics.topology import TopologyTracker

        index = DynamicSpatialIndex(rng.uniform(0, 8, size=(20, 2)), radius=1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        tracker = TopologyTracker(index, 1.0)
        # Passing only half of a consumed stream would silently drop the
        # other half, so both consumers must refuse it.
        with pytest.raises(ValueError, match="both dirty and deleted"):
            engine.update(dirty=np.array([0]))
        with pytest.raises(ValueError, match="both dirty and deleted"):
            engine.update(deleted=np.array([0]))
        with pytest.raises(ValueError, match="both dirty and deleted"):
            tracker.update(dirty=np.array([0]))

    def test_single_move_touches_at_most_two_tiles(self, rng):
        pts = rng.uniform(0, 8, size=(200, 2))
        index = DynamicSpatialIndex(pts, radius=1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        node = int(index.ids()[0])
        index.move([node], index.position_of(node)[None, :] + 0.01)
        report = engine.update()
        assert 1 <= report.dirty_tiles <= 2
        _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)

    def test_off_grid_nodes_are_ignored_like_the_builder(self, rng):
        pts = np.vstack([rng.uniform(0, 8, size=(80, 2)), [[40.0, 40.0], [-5.0, 3.0]]])
        index = DynamicSpatialIndex(pts, radius=1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)
        # Off-grid → in-grid and back.
        index.move([80], np.array([[4.0, 4.0]]))
        engine.update()
        _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)
        index.move([80], np.array([[-40.0, 4.0]]))
        engine.update()
        _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)

    def test_repair_messages_track_dirty_region_only(self, rng):
        pts = rng.uniform(0, 8, size=(300, 2))
        index = DynamicSpatialIndex(pts, radius=1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        full_messages = engine.stats.messages_sent
        node = int(index.ids()[0])
        index.move([node], index.position_of(node)[None, :] + 0.05)
        report = engine.update()
        assert 0 < report.messages < full_messages / 4


def _storm(engine, index, side, rng, steps):
    """Seeded mobility + churn; returns every update's report as a tuple."""
    reports = []
    for _ in range(steps):
        ids = index.ids()
        movers = rng.choice(ids, size=8, replace=False)
        rows = np.searchsorted(ids, movers)
        index.move(movers, np.clip(index.positions()[rows] + rng.normal(0, 0.5, size=(8, 2)), 0, side))
        index.delete(rng.choice(index.ids(), size=2, replace=False))
        index.insert(rng.uniform(0, side, size=(2, 2)))
        reports.append(tuple(vars(engine.update()).values()))
    return reports


def _nn_world():
    spec = NNTileSpec.default()
    side = 2.0 * spec.tile_side
    return spec, Rect(0.0, 0.0, side, side), side


class TestRepairMessageAccounting:
    """The engine's NetworkStats equal what the message-passing build sends."""

    def test_fresh_engine_stats_equal_distributed_build_udg(self, rng):
        index = DynamicSpatialIndex(rng.uniform(0, 8, size=(600, 2)), radius=1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        scratch = distributed_build(index.positions(), SPEC, WINDOW)
        assert engine.stats.messages_sent == scratch.stats.messages_sent
        assert engine.stats.messages_by_kind == scratch.stats.messages_by_kind
        assert engine.stats.rounds == scratch.stats.rounds
        assert scratch.stats.messages_by_kind.get("border-request", 0) > 0

    def test_fresh_engine_stats_equal_distributed_build_nn(self, rng):
        spec, window, side = _nn_world()
        index = DynamicSpatialIndex(rng.uniform(0, side, size=(60, 2)), radius=1.0)
        engine = DistributedRepairEngine(index, spec, window, k=6)
        scratch = distributed_build(index.positions(), spec, window, k=6)
        assert engine.stats.messages_sent == scratch.stats.messages_sent
        assert engine.stats.messages_by_kind == scratch.stats.messages_by_kind
        assert engine.stats.rounds == scratch.stats.rounds

    def test_storm_reports_equal_the_per_tile_accounting(self):
        """Reports recorded with the scalar per-tile repair engine, pinned.

        Each tuple is ``(dirty_tiles, changed_tiles, re_elected_regions,
        respliced_pairs, messages)``; the batched repair must reproduce the
        per-tile message sums exactly, update by update.
        """
        rng = np.random.default_rng(3)
        index = DynamicSpatialIndex(rng.uniform(0, 8, size=(600, 2)), radius=1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        assert engine.stats.messages_sent == 1692
        assert _storm(engine, index, 8.0, rng, 8) == [
            (16, 4, 76, 8, 702),
            (14, 2, 67, 5, 818),
            (13, 6, 62, 10, 692),
            (14, 6, 67, 12, 620),
            (11, 4, 52, 6, 416),
            (14, 5, 66, 12, 600),
            (13, 4, 62, 8, 524),
            (14, 3, 67, 8, 660),
        ]
        assert engine.stats.rounds == 45
        assert engine.stats.messages_sent == 6724
        assert engine.stats.messages_by_kind == {
            "border-ack": 100,
            "border-request": 100,
            "candidate": 5042,
            "connect-ack": 519,
            "connect-request": 519,
            "tile-good": 444,
        }
        assert engine.matches_rebuild()

        spec, window, side = _nn_world()
        rng = np.random.default_rng(4)
        index = DynamicSpatialIndex(rng.uniform(0, side, size=(60, 2)), radius=1.0)
        engine = DistributedRepairEngine(index, spec, window, k=6)
        assert _storm(engine, index, side, rng, 8) == [
            (4, 0, 20, 0, 12),
            (4, 0, 21, 0, 14),
            (4, 0, 21, 0, 14),
            (4, 1, 22, 0, 28),
            (3, 0, 16, 0, 26),
            (3, 1, 16, 0, 32),
            (4, 0, 21, 0, 36),
            (3, 0, 16, 0, 26),
        ]
        assert engine.stats.messages_sent == 198
        assert engine.stats.messages_by_kind == {
            "candidate": 134,
            "connect-ack": 32,
            "connect-request": 32,
        }
        assert engine.matches_rebuild()


class TestRepairBuildConvenience:
    def test_threaded_engine_round_trip(self, rng):
        pts = rng.uniform(0, 8, size=(120, 2))
        index = DynamicSpatialIndex(pts, radius=1.0)
        result, engine = repair_build(index, SPEC, WINDOW)
        _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)
        ids = index.ids()
        movers = rng.choice(ids, size=12, replace=False)
        rows = np.searchsorted(ids, movers)
        index.move(movers, index.positions()[rows] + rng.normal(0, 0.4, size=(12, 2)))
        result2, engine2 = repair_build(index, SPEC, WINDOW, engine=engine)
        assert engine2 is engine
        _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)
        # The engine's own certificate (the one S03/M02/examples consume)
        # agrees with the detailed field-by-field comparison above.
        assert engine.matches_rebuild()

    def test_shared_dirty_stream_with_topology_tracker(self, rng):
        from repro.dynamics.topology import TopologyTracker

        pts = rng.uniform(0, 8, size=(150, 2))
        index = DynamicSpatialIndex(pts, radius=1.0)
        tracker = TopologyTracker(index, 1.0)
        engine = DistributedRepairEngine(index, SPEC, WINDOW)
        for _ in range(4):
            ids = index.ids()
            movers = rng.choice(ids, size=20, replace=False)
            rows = np.searchsorted(ids, movers)
            index.move(movers, index.positions()[rows] + rng.normal(0, 0.3, size=(20, 2)))
            index.delete(rng.choice(index.ids(), size=2, replace=False))
            dirty, deleted = index.consume_dirty()
            tracker.update(dirty=dirty, deleted=deleted)
            engine.update(dirty=dirty, deleted=deleted)
            assert tracker.matches_recompute()
            _assert_engine_matches_scratch(engine, index, SPEC, WINDOW)
