"""Vectorised dynamic bulk queries vs the scalar per-center loop.

The PR-4 contract: on a *dirty* :class:`DynamicSpatialIndex` (after any
interleaving of moves, inserts and deletes), ``query_radius_many`` and
``count_radius_many`` answer byte-identically to looping the scalar
``query_radius`` per center.  The scalar query is the pre-optimisation
reference implementation, so these tests pin the fast path to the slow one
directly; where a test is parametrised by ``backend``, both are also pinned
to a from-scratch static index of that backend (as the rebuild-equivalence
tests in ``test_incremental.py`` do).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.dynamics.incremental import DynamicSpatialIndex
from repro.geometry.index import BACKENDS, GridIndex, build_index

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


def _assert_bulk_matches_scalar(
    dyn: DynamicSpatialIndex, centers: np.ndarray, radius: float, backend: str | None = None
):
    bulk = dyn.query_radius_many(centers, radius)
    scalar = [dyn.query_radius(c, radius) for c in centers]
    assert len(bulk) == len(scalar)
    for got, ref in zip(bulk, scalar):
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)
    counts = dyn.count_radius_many(centers, radius)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.array([len(a) for a in scalar], dtype=np.int64))
    if backend is not None:
        ids = dyn.ids()
        static = build_index(dyn.positions(), radius=radius, backend=backend)
        for got, hits in zip(bulk, static.query_radius_many(centers, radius)):
            assert np.array_equal(got, ids[hits])


class TestBulkMatchesScalar:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(points=st.lists(point, min_size=0, max_size=18), ops=st.lists(operation, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_random_update_interleavings(self, backend, points, ops):
        pts = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        centers = np.array([[0.25, -0.25], [4.0, 4.0], [-7.5, 7.5]])
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
            for radius in (0.0, RADIUS):
                _assert_bulk_matches_scalar(dyn, query_points, radius, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_large_dirty_session(self, backend, rng):
        pts = rng.uniform(0, 15, size=(400, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        for _ in range(5):
            ids = dyn.ids()
            movers = rng.choice(ids, size=60, replace=False)
            rows = np.searchsorted(ids, movers)
            dyn.move(movers, dyn.positions()[rows] + rng.normal(0, 0.6, size=(60, 2)))
            dyn.delete(rng.choice(dyn.ids(), size=10, replace=False))
            dyn.insert(rng.uniform(0, 15, size=(10, 2)))
            centers = rng.uniform(-1, 16, size=(120, 2))
            _assert_bulk_matches_scalar(dyn, centers, RADIUS, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_cases(self, backend):
        dyn = DynamicSpatialIndex(np.zeros((0, 2)), radius=RADIUS)
        assert dyn.query_radius_many(np.zeros((0, 2)), RADIUS) == []
        lists = dyn.query_radius_many(np.array([[0.0, 0.0]]), RADIUS)
        assert len(lists) == 1 and lists[0].size == 0
        assert np.array_equal(dyn.count_radius_many(np.array([[0.0, 0.0]]), RADIUS), [0])
        _assert_bulk_matches_scalar(dyn, np.array([[0.0, 0.0]]), RADIUS, backend)
        # All nodes deleted → same empty answers.
        dyn2 = DynamicSpatialIndex(np.array([[1.0, 1.0]]), radius=RADIUS)
        dyn2.delete([0])
        lists = dyn2.query_radius_many(np.array([[1.0, 1.0]]), RADIUS)
        assert len(lists) == 1 and lists[0].size == 0
        _assert_bulk_matches_scalar(dyn2, np.array([[1.0, 1.0]]), RADIUS, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_radius_rejected(self, backend):
        dyn = DynamicSpatialIndex(np.array([[0.0, 0.0]]), radius=RADIUS)
        static = build_index(np.array([[0.0, 0.0]]), radius=RADIUS, backend=backend)
        for index in (dyn, static):
            with pytest.raises(ValueError):
                index.query_radius_many(np.array([[0.0, 0.0]]), -0.5)
            with pytest.raises(ValueError):
                index.count_radius_many(np.array([[0.0, 0.0]]), -0.5)


class TestGridViewLifecycle:
    def test_view_reused_between_queries_and_invalidated_on_change(self, rng):
        pts = rng.uniform(0, 10, size=(50, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        centers = rng.uniform(0, 10, size=(20, 2))
        dyn.query_radius_many(centers, RADIUS)
        view = dyn._bulk_view
        assert isinstance(view, GridIndex)
        dyn.query_radius_many(centers, RADIUS)
        assert dyn._bulk_view is view  # no membership change → same snapshot
        # An in-cell move keeps the snapshot (positions are read live) …
        dyn.move([0], dyn.position_of(0)[None, :] + 1e-12)
        assert dyn._bulk_view is view
        _assert_bulk_matches_scalar(dyn, centers, RADIUS)
        # … a move into another occupied cell patches it in place …
        other = int(np.flatnonzero((dyn._keys[:50] != dyn._keys[0]).any(axis=1))[0])
        dyn.move([0], dyn.position_of(other)[None, :])
        assert dyn._bulk_view is view
        _assert_bulk_matches_scalar(dyn, centers, RADIUS)
        # … while a move out of the view's cells invalidates it.
        dyn.move([0], dyn.position_of(0)[None, :] + 50.0)
        assert dyn._bulk_view is None
        _assert_bulk_matches_scalar(dyn, centers, RADIUS)

    @pytest.mark.parametrize("seed", range(6))
    def test_patched_view_answers_like_a_fresh_view(self, seed):
        """After every batch the patched view's matches equal, array for
        array, those of a view built fresh from the cell map."""
        rng = np.random.default_rng(seed)
        dyn = DynamicSpatialIndex(rng.uniform(0, 6, size=(150, 2)), radius=RADIUS)
        centers = rng.uniform(-1, 7, size=(40, 2))
        dyn.ball_matches(centers, RADIUS)
        kept = 0
        for step in range(40):
            view = dyn._bulk_view
            ids = dyn.ids()
            movers = np.sort(rng.choice(ids, size=min(8, len(ids)), replace=False))
            # Mostly small steps; now and then one far out of the view's cells.
            jump = rng.normal(0, 0.4, size=(len(movers), 2))
            if step % 9 == 8:
                jump[0] += 20.0
            dyn.move(movers, dyn.id_positions()[movers] + jump)
            if step % 3 == 0:
                dyn.insert(rng.uniform(0, 6, size=(int(rng.integers(1, 4)), 2)))
            if step % 4 == 1:
                dyn.delete(rng.choice(dyn.ids(), size=3, replace=False))
            got = dyn.ball_matches(centers, RADIUS)
            kept += dyn._bulk_view is view
            fresh = GridIndex.from_cell_table(
                dyn._points, dyn.cell_size, np.array(list(dyn._cells), dtype=np.int64),
                list(dyn._cells.values()),
            )
            want = fresh._matches(centers, RADIUS)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            alive = dyn.id_positions()[dyn.ids()]
            got = dyn.ball_matches(alive, RADIUS, self_join=True)
            want = fresh._matches(alive, RADIUS, self_join=True)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert kept > 10  # most batches patched the view rather than rebuilding it

    def test_span_overflow_falls_back_to_scalar(self):
        # Two occupied cells 2**61 apart: the packed span overflows and the
        # bulk path must quietly loop the scalar query instead.
        pts = np.array([[0.0, 0.0], [2.0**61, 2.0**61]])
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        centers = np.array([[0.0, 0.0], [2.0**61, 2.0**61]])
        assert dyn._grid_view() is None
        _assert_bulk_matches_scalar(dyn, centers, 1.0)

    def test_from_cell_table_empty(self):
        view = GridIndex.from_cell_table(
            np.zeros((0, 2)), 1.0, np.zeros((0, 2), dtype=np.int64), []
        )
        assert view.query_radius(np.array([0.0, 0.0]), 1.0).size == 0


class TestDerivedQueriesRideBulk:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pairs_and_neighbour_lists_after_updates(self, backend, rng):
        pts = rng.uniform(0, 8, size=(100, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        dyn.delete(rng.choice(dyn.ids(), size=15, replace=False))
        dyn.insert(rng.uniform(0, 8, size=(5, 2)))
        ids = dyn.ids()
        # Reference: the scalar definitions the old loop implemented.
        ref_pairs = []
        for node in ids.tolist():
            nbrs = dyn.query_radius(dyn.position_of(node), RADIUS)
            nbrs = nbrs[nbrs > node]
            ref_pairs.extend((node, int(t)) for t in nbrs)
        pairs = dyn.query_pairs(RADIUS)
        assert [(int(a), int(b)) for a, b in pairs] == ref_pairs
        static = build_index(dyn.positions(), radius=RADIUS, backend=backend)
        assert np.array_equal(pairs, ids[static.query_pairs(RADIUS)])
        for node, arr in zip(ids.tolist(), dyn.neighbour_lists(RADIUS)):
            ref = dyn.query_radius(dyn.position_of(node), RADIUS)
            assert np.array_equal(arr, ref[ref != node])
