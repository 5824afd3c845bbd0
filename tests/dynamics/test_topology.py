"""Tests for incremental edge-diff maintenance (TopologyTracker)."""

import numpy as np
import pytest

from repro.dynamics.incremental import DynamicSpatialIndex
from repro.dynamics.topology import (
    _ENC,
    _FREE,
    EdgeDiff,
    TopologyTracker,
    _RowStore,
    _decode,
    _encode,
)
from repro.geometry.index import BACKENDS, build_index
from repro.graphs.udg import udg_edges

RADIUS = 1.2


def _edge_set(edges: np.ndarray) -> set:
    return {(int(a), int(b)) for a, b in edges}


def _apply(diff: EdgeDiff, edges: set) -> set:
    out = (edges - _edge_set(diff.removed)) | _edge_set(diff.added)
    return out


class TestTopologyTracker:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diffs_replay_to_full_recompute(self, backend, rng):
        pts = rng.uniform(0, 8, size=(80, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        replayed = _edge_set(tracker.edges())
        assert replayed == _edge_set(udg_edges(pts, RADIUS, backend=backend))
        for step in range(10):
            ids = dyn.ids()
            movers = rng.choice(ids, size=min(15, len(ids)), replace=False)
            rows = np.searchsorted(ids, movers)
            dyn.move(movers, dyn.positions()[rows] + rng.normal(0, 0.5, size=(len(movers), 2)))
            if step % 2 == 0:
                dyn.insert(rng.uniform(0, 8, size=(3, 2)))
            if step % 3 == 1:
                dyn.delete(rng.choice(dyn.ids(), size=4, replace=False))
            diff = tracker.update()
            replayed = _apply(diff, replayed)
            # The maintained set, the replayed diffs and a from-scratch
            # recompute over the survivors must all coincide.
            assert replayed == _edge_set(tracker.edges())
            assert tracker.matches_recompute()
            ids = dyn.ids()
            expected = {
                (int(ids[a]), int(ids[b]))
                for a, b in udg_edges(dyn.positions(), RADIUS, backend=backend)
            }
            assert replayed == expected

    def test_no_updates_yield_empty_diff(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(20, 2)), radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        diff = tracker.update()
        assert diff.n_added == 0 and diff.n_removed == 0 and diff.churn == 0

    def test_deleting_a_node_removes_exactly_its_edges(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        tracker = TopologyTracker(dyn, 1.0)
        assert _edge_set(tracker.edges()) == {(0, 1), (1, 2)}
        dyn.delete([1])
        diff = tracker.update()
        assert _edge_set(diff.removed) == {(0, 1), (1, 2)}
        assert diff.n_added == 0
        assert tracker.n_edges == 0

    def test_move_creates_and_breaks_edges(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        tracker = TopologyTracker(dyn, 1.0)
        dyn.move([2], np.array([[2.0, 0.0]]))  # now adjacent to node 1
        diff = tracker.update()
        assert _edge_set(diff.added) == {(1, 2)}
        dyn.move([1], np.array([[9.0, 9.0]]))  # leaves both neighbourhoods
        diff = tracker.update()
        assert _edge_set(diff.removed) == {(0, 1), (1, 2)}

    def test_radius_zero_matches_udg_convention(self):
        # udg_edges at radius 0 is empty even for coincident points.
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        dyn = DynamicSpatialIndex(pts, radius=0.0)
        tracker = TopologyTracker(dyn, 0.0)
        assert tracker.n_edges == 0
        dyn.move([0], np.array([[2.0, 2.0]]))
        assert tracker.update().churn == 0
        assert tracker.matches_recompute()

    def test_graph_remaps_ids_to_compact_rows(self, rng):
        pts = rng.uniform(0, 5, size=(25, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        dyn.delete([0, 5, 6])
        tracker.update()
        graph = tracker.graph()
        assert graph.n_nodes == 22
        assert np.array_equal(graph.points, dyn.positions())
        expected = udg_edges(dyn.positions(), RADIUS)
        assert _edge_set(graph.edges) == _edge_set(expected)

    def test_negative_radius_rejected(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 2, size=(3, 2)), radius=1.0)
        with pytest.raises(ValueError):
            TopologyTracker(dyn, -1.0)


def _recomputed_keys(dyn: DynamicSpatialIndex, radius: float, backend: str) -> np.ndarray:
    """The UDG edge keys of a from-scratch static ``backend`` index, in id space."""
    if radius == 0:
        return np.zeros(0, dtype=np.int64)
    pairs = build_index(dyn.positions(), radius=radius, backend=backend).query_pairs(radius)
    return _encode(dyn.ids()[pairs])


def _tick(tracker: TopologyTracker, mutate, backend: str) -> EdgeDiff:
    """Apply ``mutate`` to the index, update, and check the tick array for array."""
    dyn, radius = tracker.index, tracker.radius
    before = _recomputed_keys(dyn, radius, backend)
    mutate(dyn)
    diff = tracker.update()
    after = _recomputed_keys(dyn, radius, backend)
    assert np.array_equal(diff.added, _decode(np.setdiff1d(after, before)))
    assert np.array_equal(diff.removed, _decode(np.setdiff1d(before, after)))
    assert diff.added.dtype == diff.removed.dtype == np.int64
    assert tracker.n_edges == len(after)
    assert np.array_equal(tracker.edges(), _decode(after))
    assert tracker.matches_recompute()
    return diff


@pytest.mark.parametrize("backend", BACKENDS)
class TestTopologyTrackerBytes:
    """Every diff, edge count and edge array equals a from-scratch recompute."""

    def test_move_insert_delete_ticks(self, backend, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 8, size=(120, 2)), radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)

        def move(d):
            movers = np.sort(rng.choice(d.ids(), size=12, replace=False))
            d.move(movers, d.id_positions()[movers] + rng.normal(0, 0.6, size=(12, 2)))

        def insert(d):
            d.insert(rng.uniform(0, 8, size=(5, 2)))

        def delete(d):
            d.delete(rng.choice(d.ids(), size=5, replace=False))

        for mutate in (move, insert, delete) * 4:
            _tick(tracker, mutate, backend)
        _tick(tracker, lambda d: (move(d), insert(d), delete(d)), backend)

    def test_two_adjacent_dirty_nodes_in_one_tick(self, backend):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.2, 0.0], [5.0, 5.0]])
        tracker = TopologyTracker(DynamicSpatialIndex(pts, radius=1.0), 1.0)
        # Nodes 0 and 1 stay adjacent to each other, 1 leaves 2, and both meet
        # 3 (node 1 exactly on the closed ball's boundary).
        diff = _tick(tracker, lambda d: d.move([0, 1], np.array([[4.5, 5.0], [4.0, 5.0]])), backend)
        assert diff.added.tolist() == [[0, 3], [1, 3]]
        assert diff.removed.tolist() == [[1, 2]]

    def test_delete_isolated_node(self, backend):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 9.0]])
        tracker = TopologyTracker(DynamicSpatialIndex(pts, radius=1.0), 1.0)
        assert _tick(tracker, lambda d: d.delete([2]), backend).churn == 0

    def test_delete_everything_then_insert_again(self, backend, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 4, size=(40, 2)), radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        n_before = tracker.n_edges
        diff = _tick(tracker, lambda d: d.delete(d.ids()), backend)
        assert diff.n_removed == n_before and tracker.n_edges == 0
        _tick(tracker, lambda d: d.insert(rng.uniform(0, 4, size=(30, 2))), backend)
        assert tracker.n_edges > 0

    def test_radius_zero(self, backend):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        tracker = TopologyTracker(DynamicSpatialIndex(pts, radius=0.0), 0.0)
        _tick(tracker, lambda d: d.move([2], np.array([[1.0, 1.0]])), backend)
        _tick(tracker, lambda d: d.insert(np.array([[1.0, 1.0]])), backend)
        assert tracker.n_edges == 0

    def test_empty_tick(self, backend, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(30, 2)), radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        edges = tracker.edges()
        assert _tick(tracker, lambda d: None, backend).churn == 0
        assert np.array_equal(tracker.edges(), edges)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracker_neighbours_equal_index_ball_queries_over_a_storm(backend):
    """Each alive node's slice of the directed store is its closed-ball query, every tick.

    The ball query is asked of the dynamic index and of a from-scratch static
    ``backend`` index over the survivors.  Half the moves land on a
    quarter-unit lattice (exact in binary), so the storm keeps producing
    coincident points and pairs exactly ``r`` apart.
    """
    rng = np.random.default_rng(41)
    radius, side = 1.0, 6.0
    seeded = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]  # coincident, and r apart
    pts = np.vstack([rng.uniform(0, side, size=(90, 2)), seeded])
    dyn = DynamicSpatialIndex(pts, radius=radius)
    tracker = TopologyTracker(dyn, radius)
    for step in range(25):
        movers = np.sort(rng.choice(dyn.ids(), size=10, replace=False))
        targets = dyn.id_positions()[movers] + rng.uniform(-0.6, 0.6, size=(10, 2))
        targets[::2] = np.round(targets[::2] * 4.0) / 4.0
        dyn.move(movers, np.clip(targets, 0.0, side))
        if step % 3 == 0:
            dyn.insert(np.round(rng.uniform(0, side, size=(2, 2)) * 4.0) / 4.0)
        if step % 4 == 1:
            dyn.delete(rng.choice(dyn.ids(), size=2, replace=False))
        tracker.update()
        ids = dyn.ids()
        static = build_index(dyn.positions(), radius=radius, backend=backend)
        for row, node in enumerate(ids.tolist()):
            got = tracker.neighbours(node).tolist()
            assert got == dyn.neighbours_of(node, radius).tolist(), (step, node)
            assert got == ids[static.neighbours_of(row, radius)].tolist(), (step, node)
    exact = dyn.id_positions()[dyn.ids()]
    gaps = np.hypot(*(exact[:, None, :] - exact[None, :, :]).transpose(2, 0, 1))
    assert (gaps == 0.0).sum() > len(exact) and (gaps == radius).any()  # the storm hit both edge cases



def _reference_splice(keys: np.ndarray, removed: np.ndarray, added: np.ndarray) -> np.ndarray:
    """The flat write-back the row store replaces: ``np.delete`` then ``np.insert``."""
    kept = np.delete(keys, np.searchsorted(keys, removed))
    return np.insert(kept, np.searchsorted(kept, added), added)


def _directed(pairs) -> np.ndarray:
    return np.sort(np.array([a * int(_ENC) + b for a, b in pairs], dtype=np.int64))


def _assert_store_holds(store: _RowStore, keys: np.ndarray) -> None:
    assert np.array_equal(store.keys(), keys)
    owners = keys // _ENC
    for node in range(len(store.degree)):
        row = keys[owners == node] % _ENC
        assert np.array_equal(store.row(node), row)
        assert store.degree[node] == len(row)
        assert (store.rows[node, len(row) :] == _FREE).all()


class TestRowStoreSplice:
    """The padded row write-back equals the flat ``np.delete`` + ``np.insert``."""

    def test_edge_positions(self):
        keys = _directed([(0, 1), (0, 5), (0, 9), (1, 0), (3, 2), (3, 7)])
        store = _RowStore.from_keys(keys, 4)
        cases = [
            # first and last key of the store
            (_directed([(0, 1), (3, 7)]), _directed([])),
            # three keys at one insertion point, and one past the last key
            (_directed([]), _directed([(0, 2), (0, 3), (0, 4), (3, 9)])),
            # a whole row replaced, and a row that was empty filled
            (_directed([(0, 2), (0, 3), (0, 4), (0, 5), (0, 9)]), _directed([(0, 6), (2, 0)])),
            # keys added before the first key of a row and of the store
            (_directed([]), _directed([(0, 0), (2, 1), (3, 0)])),
        ]
        for removed, added in cases:
            expected = _reference_splice(keys, removed, added)
            store.splice(removed, added)
            _assert_store_holds(store, expected)
            keys = expected

    @pytest.mark.parametrize("seed", range(30))
    def test_random_splices(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(1, 12))
        universe = np.arange(n_rows * 40, dtype=np.int64)
        universe = universe // 40 * _ENC + universe % 40
        keys = np.sort(rng.choice(universe, size=int(rng.integers(0, len(universe))), replace=False))
        store = _RowStore.from_keys(keys, n_rows)
        for _ in range(8):
            # Empty sides, sparse and dense changes, and ids past the last row.
            p_remove, p_add = rng.choice([0.0, 0.05, 0.5, 1.0], size=2)
            removed = keys[rng.random(len(keys)) < p_remove]
            grown = np.arange((n_rows + 2) * 40, dtype=np.int64)
            grown = grown // 40 * _ENC + grown % 40
            free = np.setdiff1d(grown, keys)
            added = free[rng.random(len(free)) < p_add / 4]
            expected = _reference_splice(keys, rng.permutation(removed), added)
            store.splice(rng.permutation(removed), added)
            _assert_store_holds(store, expected)
            keys = expected
