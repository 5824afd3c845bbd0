"""Property and unit tests for DynamicSpatialIndex.

The acceptance contract: after ANY interleaving of moves, inserts and
deletes, every query answers byte-identically to a from-scratch
``build_index`` over the surviving positions, whichever static backend
builds that reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.distributed import network as network_module
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.geometry.index import BACKENDS, build_index

RADIUS = 1.0
coord = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
snapped = coord.map(lambda x: round(x * 2) / 2)  # boundary/coincident cases
coord_any = coord | snapped
point = st.tuples(coord_any, coord_any)

operation = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 10**6), point),
    st.tuples(st.just("insert"), st.just(0), point),
    st.tuples(st.just("delete"), st.integers(0, 10**6), point),
)


def _assert_matches_rebuild(
    dyn: DynamicSpatialIndex, radius: float, centers, backend: str
) -> None:
    """Every query surface must equal the compacted rebuild, id-mapped.

    ``backend`` picks the static reference index: ``kdtree`` crosses
    implementations, ``grid`` pins the shared cell geometry.
    """
    ids = dyn.ids()
    rebuilt = build_index(dyn.positions(), radius=radius, backend=backend)
    many = dyn.query_radius_many(centers, radius)
    ref_many = rebuilt.query_radius_many(centers, radius)
    assert len(many) == len(ref_many)
    for got, ref in zip(many, ref_many):
        assert np.array_equal(got, ids[ref])
    assert np.array_equal(dyn.count_radius_many(centers, radius), [len(a) for a in many])
    pairs = dyn.query_pairs(radius)
    ref_pairs = rebuilt.query_pairs(radius)
    assert np.array_equal(pairs, ids[ref_pairs] if len(ref_pairs) else ref_pairs)
    for got, ref in zip(dyn.neighbour_lists(radius), rebuilt.neighbour_lists(radius)):
        assert np.array_equal(got, ids[ref])


class TestRebuildEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(points=st.lists(point, min_size=0, max_size=20), ops=st.lists(operation, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_random_update_interleavings_match_rebuild(self, backend, points, ops):
        pts = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        centers = np.array([[0.25, -0.25], [4.0, 4.0]])
        for op, raw_id, xy in ops:
            alive = dyn.ids()
            if op == "insert":
                dyn.insert(np.array([xy]))
            elif len(alive):
                node = int(alive[raw_id % len(alive)])
                if op == "move":
                    dyn.move([node], np.array([xy]))
                else:
                    dyn.delete([node])
            query_points = np.vstack([centers, dyn.positions()]) if len(dyn) else centers
            _assert_matches_rebuild(dyn, RADIUS, query_points, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_long_random_session_with_bulk_updates(self, backend, rng):
        pts = rng.uniform(0, 12, size=(150, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        for step in range(12):
            ids = dyn.ids()
            movers = rng.choice(ids, size=min(30, len(ids)), replace=False)
            rows = np.searchsorted(ids, movers)
            dyn.move(movers, dyn.positions()[rows] + rng.normal(0, 0.4, size=(len(movers), 2)))
            if step % 3 == 0:
                dyn.insert(rng.uniform(0, 12, size=(4, 2)))
            if step % 4 == 1:
                dyn.delete(rng.choice(dyn.ids(), size=5, replace=False))
            for radius in (0.0, 0.5, RADIUS, 3.7):
                _assert_matches_rebuild(dyn, radius, dyn.positions()[:20], backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_move_everything_fast_path(self, backend, rng):
        pts = rng.uniform(0, 10, size=(80, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        for _ in range(5):
            dyn.move(dyn.ids(), dyn.positions() + rng.normal(0, 0.2, size=pts.shape))
            _assert_matches_rebuild(dyn, RADIUS, dyn.positions(), backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_start_empty_grow_then_shrink(self, backend, rng):
        dyn = DynamicSpatialIndex(np.zeros((0, 2)), radius=RADIUS)
        assert len(dyn) == 0
        assert dyn.query_radius((0, 0), RADIUS).size == 0
        first = dyn.insert(rng.uniform(0, 5, size=(30, 2)))
        assert np.array_equal(first, np.arange(30))
        _assert_matches_rebuild(dyn, RADIUS, dyn.positions(), backend)
        dyn.delete(first[:25])
        _assert_matches_rebuild(dyn, RADIUS, dyn.positions(), backend)
        dyn.delete(dyn.ids())
        assert len(dyn) == 0
        assert dyn.query_pairs(RADIUS).shape == (0, 2)


class TestIdSemantics:
    def test_ids_are_stable_and_never_reused(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(10, 2)), radius=RADIUS)
        dyn.delete([3, 7])
        fresh = dyn.insert(rng.uniform(0, 5, size=(2, 2)))
        assert fresh.tolist() == [10, 11]  # deleted ids 3/7 are not recycled
        assert 3 not in dyn.ids() and 10 in dyn.ids()

    def test_position_of_and_is_alive(self, rng):
        pts = rng.uniform(0, 5, size=(6, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        assert np.array_equal(dyn.position_of(2), pts[2])
        dyn.delete([2])
        assert not dyn.is_alive(2)
        with pytest.raises(ValueError):
            dyn.position_of(2)

    def test_invalid_updates_rejected(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(5, 2)), radius=RADIUS)
        with pytest.raises(ValueError):
            dyn.move([99], np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            dyn.move([1, 1], np.zeros((2, 2)))  # duplicates
        with pytest.raises(ValueError):
            dyn.move([1], np.zeros((2, 2)))  # count mismatch
        with pytest.raises(ValueError):
            dyn.move([1], np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            dyn.insert(np.array([[np.inf, 0.0]]))
        dyn.delete([1])
        with pytest.raises(ValueError):
            dyn.delete([1])  # already dead


class TestDirtyTracking:
    def test_consume_dirty_reports_and_resets(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(8, 2)), radius=RADIUS)
        dyn.consume_dirty()
        dyn.move([1, 4], rng.uniform(0, 5, size=(2, 2)))
        new = dyn.insert(rng.uniform(0, 5, size=(1, 2)))
        dyn.delete([2])
        dirty, deleted = dyn.consume_dirty()
        assert dirty.tolist() == [1, 4, int(new[0])]
        assert deleted.tolist() == [2]
        dirty, deleted = dyn.consume_dirty()
        assert dirty.size == 0 and deleted.size == 0

    def test_moved_then_deleted_id_reports_only_as_deleted(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(5, 2)), radius=RADIUS)
        dyn.consume_dirty()
        dyn.move([1], rng.uniform(0, 5, size=(1, 2)))
        dyn.delete([1])
        dirty, deleted = dyn.consume_dirty()
        assert 1 not in dirty
        assert deleted.tolist() == [1]


class TestCaching:
    def test_positions_identity_stable_across_moves(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(10, 2)), radius=RADIUS)
        first = dyn.positions()
        dyn.move([0], np.array([[1.0, 1.0]]))
        assert dyn.positions() is first  # rewritten in place, same object
        assert np.array_equal(first[0], [1.0, 1.0])
        dyn.insert(np.array([[2.0, 2.0]]))
        assert dyn.positions() is not first  # active set changed: new object

    def test_move_invalidates_the_network_neighbour_cache(self, rng):
        network_module.clear_neighbour_cache()
        dyn = DynamicSpatialIndex(rng.uniform(0, 3, size=(12, 2)), radius=RADIUS)
        net_a = network_module.MessageNetwork(dyn.positions(), radio_range=RADIUS)
        table_a = net_a._neighbours
        assert network_module.MessageNetwork(dyn.positions(), radio_range=RADIUS)._neighbours is table_a
        dyn.move(dyn.ids()[:3], rng.uniform(0, 3, size=(3, 2)))
        # Same array object, mutated in place: the cache entry must be gone
        # and the new table must reflect the new positions.
        net_b = network_module.MessageNetwork(dyn.positions(), radio_range=RADIUS)
        assert net_b._neighbours is not table_a
        rebuilt = build_index(dyn.positions(), radius=RADIUS)
        for got, ref in zip(net_b._neighbours, rebuilt.neighbour_lists(RADIUS)):
            assert np.array_equal(got, ref)


class TestMaintenanceStats:
    def test_grid_counts_cell_transfers_only_for_crossers(self, rng):
        pts = np.array([[0.5, 0.5], [2.5, 2.5]])
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        dyn.move([0], np.array([[0.6, 0.6]]))  # same cell
        assert dyn.stats.cell_transfers == 0
        dyn.move([0], np.array([[1.5, 0.5]]))  # crosses in x
        assert dyn.stats.cell_transfers == 1
        assert dyn.stats.moves == 2

    def test_grid_overflow_guard_matches_static_backend(self):
        dyn = DynamicSpatialIndex(np.array([[0.0, 0.0]]), radius=1e-13)
        with pytest.raises(ValueError, match="too many grid cells"):
            dyn.insert(np.array([[1e6, 0.0]]))
        with pytest.raises(ValueError, match="too many grid cells"):
            dyn.move([0], np.array([[1e6, 0.0]]))
