"""Incremental spatial-index maintenance: moves, inserts and deletes.

:class:`DynamicSpatialIndex` keeps neighbour queries answerable while a
deployment evolves, *without* rebuilding a :func:`repro.geometry.index.build_index`
structure from scratch on every change.  Nodes get stable integer ids (the
row index at construction, then sequentially for arrivals), every query
answers in id space, and the contract is exact equivalence: after any
interleaving of :meth:`move` / :meth:`insert` / :meth:`delete`, every query
returns byte-identically what a from-scratch rebuild over the surviving
positions would return (property-tested over random update sequences
against a from-scratch build on every static backend).

The structure is a **dirty-cell-patched grid.**  Cell membership lives in a
hash map of sorted id arrays.  A move only touches the structure when the
node actually crosses a cell boundary, and then only the affected cells are
re-grouped (one vectorised pass over their pooled members); the untouched
cells — almost all of them for small per-step displacements — are never
visited.  Queries reuse the static :class:`~repro.geometry.index.GridIndex`
cell geometry (exact keys, rational reach, boundary-slack guard rings) so the
candidate superset, and therefore the exact result, is identical.

Bulk queries (and :meth:`query_pairs` /
:meth:`~DynamicSpatialIndex.neighbour_lists`, which ride them) adopt the
*patched* cell table into a :meth:`~repro.geometry.index.GridIndex.from_cell_table`
view, so the static grid's one-gather ``_matches`` scheme answers every
center at once straight off the incrementally maintained structure,
byte-identically to looping the scalar query per center — the S03 benchmark
measures the gap (~an order of magnitude at large center counts).

Membership is decided by the one shared
:func:`~repro.geometry.index.within_ball` predicate of the static layer,
which is what makes the byte-identical contract possible at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.distributed.network import invalidate_neighbour_cache
from repro.geometry.index import GridIndex, _canonical_pairs, _flatten_lists, within_ball
from repro.geometry.primitives import as_points
from repro.kernels import ops as kernel_ops

__all__ = ["DynamicIndexStats", "DynamicSpatialIndex"]

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


@dataclass
class DynamicIndexStats:
    """Maintenance accounting: what the incremental layer actually did.

    ``cell_transfers`` counts nodes that crossed a cell boundary (the only
    moves that touch the grid structure).
    """

    moves: int = 0
    inserts: int = 0
    deletes: int = 0
    cell_transfers: int = 0


def _check_radius(radius: float) -> None:
    if radius < 0:
        raise ValueError("radius must be non-negative")


class DynamicSpatialIndex:
    """A spatial index over a mutating point set, queried in stable-id space.

    Parameters
    ----------
    points:
        ``(n, 2)`` initial positions; node ids are the row indices.
    radius:
        The query radius the index will mostly serve; it is the grid cell
        size, as in :func:`~repro.geometry.index.build_index`.

    :meth:`positions` / :meth:`ids` return cached arrays that keep their
    identity until the active set changes, so identity-keyed caches above
    (e.g. the :class:`~repro.distributed.network.MessageNetwork` neighbour
    table) stay valid between updates and are invalidated through
    :func:`~repro.distributed.network.invalidate_neighbour_cache` when a move
    rewrites the cached coordinates in place.  Treat both as read-only.
    """

    def __init__(self, points: np.ndarray, radius: float | None = None) -> None:
        pts = as_points(points)
        if len(pts) and not np.isfinite(pts).all():
            raise ValueError("positions must be finite")
        self.stats = DynamicIndexStats()

        n = len(pts)
        capacity = max(8, n)
        self._points = np.zeros((capacity, 2), dtype=np.float64)
        self._points[:n] = pts
        self._alive = np.zeros(capacity, dtype=bool)
        self._alive[:n] = True
        self._dirty = np.zeros(capacity, dtype=bool)
        self._size = n  # next fresh id
        self._n_alive = n
        self._deleted_buffer: List[int] = []
        self._active_ids: np.ndarray | None = None
        self._compact: np.ndarray | None = None

        # Any cell size answers radius-0 queries.
        self.cell_size = 1.0 if radius is None or radius <= 0 else float(radius)
        # Geometry-only helper: reuses the static grid's exact cell keys,
        # rational reach and boundary-slack logic verbatim, so the candidate
        # supersets (hence the exact results) cannot drift.
        self._geom = GridIndex(np.zeros((0, 2)), cell_size=self.cell_size)
        self._keys = np.zeros((capacity, 2), dtype=np.int64)
        # Float mirror of the exact integer keys (exact below 2**53): lets a
        # move detect "same cell, nothing to do" with one float comparison
        # instead of re-running the exact-key repair.
        self._keys_f = np.zeros((capacity, 2), dtype=np.float64)
        self._mirror_exact = True
        self._cells: Dict[Tuple[int, int], np.ndarray] = {}
        # Lazily built GridIndex view over the patched cell table (the
        # bulk-query engine); None = stale, False = key span overflowed the
        # packed table and bulk queries fall back to the scalar loop.
        self._bulk_view: GridIndex | None | bool = None
        if n:
            keys = self._checked_keys(pts)
            self._keys[:n] = keys
            self._keys_f[:n] = keys
            if np.abs(keys).max() >= 2**53:
                self._mirror_exact = False
            self._regroup_cells(drop=_EMPTY_IDS, add=np.arange(n, dtype=np.int64))

    # -- id / position accessors ------------------------------------------------
    def __len__(self) -> int:
        return self._n_alive

    def ids(self) -> np.ndarray:
        """Alive node ids, ascending (cached; do not mutate)."""
        if self._active_ids is None:
            self._active_ids = np.nonzero(self._alive[: self._size])[0].astype(np.int64)
        return self._active_ids

    def positions(self) -> np.ndarray:
        """Positions of the alive nodes in :meth:`ids` order (cached; do not mutate).

        The array object is reused across :meth:`move` calls (rows are
        rewritten in place) and replaced whenever the active set changes, so
        its identity keys "same deployment" for caches layered above.
        """
        if self._compact is None:
            self._compact = self._points[self.ids()].copy()
        return self._compact

    def id_positions(self) -> np.ndarray:
        """Id-indexed coordinate buffer: row ``i`` is the position of node ``i``.

        Covers every id ever allocated; rows of deleted nodes hold their last
        position.  The id-space consumers above this layer (topology trackers,
        the distributed repair engine) index it directly instead of translating
        through the compact :meth:`positions` order.  Treat as read-only; the
        array identity may change when the index grows.
        """
        return self._points[: self._size]

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` refers to a currently alive node."""
        node_id = int(node_id)
        return 0 <= node_id < self._size and bool(self._alive[node_id])

    def position_of(self, node_id: int) -> np.ndarray:
        """Current position of one alive node."""
        node_id = int(node_id)
        if not (0 <= node_id < self._size) or not self._alive[node_id]:
            raise ValueError(f"node id {node_id} is not alive")
        return self._points[node_id].copy()

    # -- updates ----------------------------------------------------------------
    def _validate_ids(self, ids: Iterable[int]) -> np.ndarray:
        if isinstance(ids, np.ndarray) and ids is self._active_ids:
            return ids  # the index's own id array: trusted as-is
        arr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
        arr = arr.reshape(-1)
        if arr.size == 0:
            return arr
        if arr.min() < 0 or arr.max() >= self._size or not self._alive[arr].all():
            raise ValueError("all ids must refer to alive nodes")
        # Strictly-ascending input (the common bulk case) is duplicate-free
        # without the O(n log n) unique.
        if arr.size > 1 and not (arr[1:] > arr[:-1]).all():
            if len(np.unique(arr)) != len(arr):
                raise ValueError("duplicate ids in one update call")
        return arr

    def _validate_positions(self, positions: np.ndarray, count: int) -> np.ndarray:
        pts = as_points(positions)
        if len(pts) != count:
            raise ValueError(f"expected {count} positions, got {len(pts)}")
        if len(pts) and not np.isfinite(pts).all():
            raise ValueError("positions must be finite")
        return pts

    def move(self, ids: Iterable[int], new_positions: np.ndarray) -> None:
        """Relocate alive nodes; only structure touched by the moves is patched."""
        ids = self._validate_ids(ids)
        new = self._validate_positions(new_positions, len(ids))
        if ids.size == 0:
            return
        # When every node is alive and the caller moves all of them (the
        # mobility hot path), id arithmetic degenerates to whole-array slices.
        full = ids is self._active_ids and self._n_alive == self._size
        self._grid_move(ids, new, full)
        if full:
            self._points[: self._size] = new
            self._dirty[: self._size] = True
        else:
            self._points[ids] = new
            self._dirty[ids] = True
        self.stats.moves += len(ids)
        if self._compact is not None:
            # Rewrite the cached compact rows in place and tell identity-keyed
            # caches above that this array's contents changed.
            if ids is self._active_ids:
                self._compact[:] = new
            else:
                self._compact[np.searchsorted(self.ids(), ids)] = new
            invalidate_neighbour_cache(self._compact)

    def _grid_move(self, ids: np.ndarray, new: np.ndarray, full: bool = False) -> None:
        """Patch only the cells of nodes that actually crossed a boundary.

        The exact-key repair (:meth:`GridIndex._exact_keys`) differs from the
        plain ``floor(x / cell_size)`` only where the computed quotient lands
        exactly on an integer, so it is re-run on just those *suspect* rows
        plus the rows whose plain key changed; everything else provably kept
        its cell, costing one float comparison per moved node.
        """
        quot = new / self.cell_size
        keys_f = np.floor(quot)
        # One reduction guards both overflow and non-finite input: a NaN in
        # the maximum poisons the comparison into raising too.
        max_key = np.abs(keys_f).max(initial=0.0)
        if not max_key < 2**62:
            raise ValueError(
                "point spread spans too many grid cells for this radius; "
                "build the index with a larger radius"
            )
        old_keys_f = self._keys_f[: self._size] if full else self._keys_f[ids]
        if max_key >= 2**53 or not self._mirror_exact:
            # Beyond 2**53 the float key mirror is no longer exact: take the
            # full exact path for the whole batch.
            examine = np.ones(len(ids), dtype=bool)
        else:
            examine = ((keys_f != old_keys_f) | (quot == keys_f)).any(axis=1)
        if examine.any():
            exact = self._geom._exact_keys(new[examine], quot=quot[examine])
            sub_ids = ids[examine]
            crossed = (exact != self._keys[sub_ids]).any(axis=1)
            if crossed.any():
                movers = sub_ids[crossed]
                new_keys = exact[crossed]
                self._regroup_cells(drop=movers, add=movers, add_keys=new_keys)
                self._keys[movers] = new_keys
                self._keys_f[movers] = new_keys
                if np.abs(new_keys).max() >= 2**53:
                    self._mirror_exact = False
                self.stats.cell_transfers += int(crossed.sum())

    def insert(self, positions: np.ndarray) -> np.ndarray:
        """Add new nodes; returns their freshly allocated ids."""
        pts = as_points(positions)
        pts = self._validate_positions(pts, len(pts))
        count = len(pts)
        if count == 0:
            return _EMPTY_IDS.copy()
        self._ensure_capacity(count)
        new_ids = np.arange(self._size, self._size + count, dtype=np.int64)
        self._points[new_ids] = pts
        self._alive[new_ids] = True
        self._dirty[new_ids] = True
        self._size += count
        self._n_alive += count
        keys = self._checked_keys(pts)
        self._keys[new_ids] = keys
        self._keys_f[new_ids] = keys
        if np.abs(keys).max() >= 2**53:
            self._mirror_exact = False
        self._regroup_cells(drop=_EMPTY_IDS, add=new_ids, add_keys=keys)
        self.stats.inserts += count
        self._invalidate_compact()
        return new_ids

    def delete(self, ids: Iterable[int]) -> None:
        """Remove alive nodes (their ids are never reused)."""
        ids = self._validate_ids(ids)
        if ids.size == 0:
            return
        self._regroup_cells(drop=ids, add=_EMPTY_IDS)
        self._alive[ids] = False
        self._dirty[ids] = False
        self._n_alive -= len(ids)
        self._deleted_buffer.extend(int(i) for i in ids)
        self.stats.deletes += len(ids)
        self._invalidate_compact()

    def consume_dirty(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ids touched since the last call: ``(moved_or_inserted_alive, deleted)``.

        The topology layer uses this to confine edge repair to the
        neighbourhoods that can actually have changed.
        """
        dirty = np.nonzero(self._dirty[: self._size])[0].astype(np.int64)
        deleted = np.asarray(sorted(set(self._deleted_buffer)), dtype=np.int64)
        self._dirty[: self._size] = False
        self._deleted_buffer = []
        return dirty, deleted

    def _invalidate_compact(self) -> None:
        if self._compact is not None:
            invalidate_neighbour_cache(self._compact)
        self._compact = None
        self._active_ids = None

    def _ensure_capacity(self, extra: int) -> None:
        need = self._size + extra
        capacity = len(self._points)
        if need <= capacity:
            return
        new_capacity = max(need, 2 * capacity)
        for name in ("_points", "_alive", "_dirty", "_keys", "_keys_f"):
            old = getattr(self, name)
            shape = (new_capacity,) + old.shape[1:]
            grown = np.zeros(shape, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)
        # The bulk view adopted the old coordinate buffer by reference.
        self._bulk_view = None

    # -- grid maintenance -------------------------------------------------------
    def _checked_keys(self, pts: np.ndarray) -> np.ndarray:
        """Exact cell keys with the static grid's overflow guard."""
        quot = pts / self.cell_size
        keys_f = np.floor(quot)
        if len(pts) and (not np.isfinite(keys_f).all() or np.abs(keys_f).max() >= 2**62):
            raise ValueError(
                "point spread spans too many grid cells for this radius; "
                "build the index with a larger radius"
            )
        return self._geom._exact_keys(pts, quot=quot)

    def _regroup_cells(
        self,
        drop: np.ndarray,
        add: np.ndarray,
        add_keys: np.ndarray | None = None,
    ) -> None:
        """Re-derive membership of only the cells touched by one batch update.

        ``drop`` ids leave their *current* cells (``self._keys`` must still
        hold their old keys), ``add`` ids enter the cells of ``add_keys``
        (default: their current keys).  All touched cells are pooled,
        re-grouped with one lexsort and written back; cells outside the
        touched set are never visited — the dirty-cell patch.
        """
        if add_keys is None:
            add_keys = self._keys[add]
        parts = []
        if len(drop):
            parts.append(self._keys[drop])
        if len(add):
            parts.append(add_keys)
        if not parts:
            return
        self._bulk_view = None  # cell membership is about to change
        pooled_keys = np.concatenate(parts)
        # Row-dedup via lexsort + boundary diff (cheaper than unique(axis=0),
        # which hashes a void view of every row).
        order = np.lexsort((pooled_keys[:, 1], pooled_keys[:, 0]))
        pooled_keys = pooled_keys[order]
        if len(pooled_keys) > 1:
            keep = np.concatenate([[True], np.diff(pooled_keys, axis=0).any(axis=1)])
            touched = pooled_keys[keep]
        else:
            touched = pooled_keys
        cells = list(zip(touched[:, 0].tolist(), touched[:, 1].tolist()))
        pools = [self._cells.pop(cell, None) for cell in cells]
        members = np.concatenate([p for p in pools if p is not None] or [_EMPTY_IDS])
        if len(drop):
            members = members[~np.isin(members, drop)]
        all_ids = np.concatenate([members, add]) if len(add) else members
        all_keys = (
            np.concatenate([self._keys[members], add_keys]) if len(add) else self._keys[members]
        )
        if len(all_ids):
            order = np.lexsort((all_ids, all_keys[:, 1], all_keys[:, 0]))
            all_ids = all_ids[order]
            all_keys = all_keys[order]
            breaks = np.nonzero(np.diff(all_keys, axis=0).any(axis=1))[0] + 1
            starts = np.concatenate([[0], breaks])
            ends = np.concatenate([breaks, [len(all_ids)]])
            kx = all_keys[:, 0].tolist()
            ky = all_keys[:, 1].tolist()
            store = self._cells
            # Cell arrays are views into one sorted batch buffer: they are
            # only ever read or wholesale replaced, never mutated in place.
            for start, end in zip(starts.tolist(), ends.tolist()):
                store[(kx[start], ky[start])] = all_ids[start:end]

    def _grid_query_one(self, center: np.ndarray, radius: float) -> np.ndarray:
        coords = center.reshape(1, 2)
        key = self._geom._exact_keys(coords)
        reach = self._geom._reach(radius)
        lo, hi = self._geom._boundary_slack(coords, key, radius)
        x0, x1 = int(key[0, 0]) - reach - int(lo[0, 0]), int(key[0, 0]) + reach + int(hi[0, 0])
        y0, y1 = int(key[0, 1]) - reach - int(lo[0, 1]), int(key[0, 1]) + reach + int(hi[0, 1])
        cells = self._cells
        if (x1 - x0 + 1) * (y1 - y0 + 1) > len(cells):
            # A stencil wider than the occupied cells (a large radius): visit
            # the occupied cells inside its box instead of every stencil cell.
            parts = [arr for (x, y), arr in cells.items() if x0 <= x <= x1 and y0 <= y <= y1]
        else:
            parts = [
                arr
                for x in range(x0, x1 + 1)
                for y in range(y0, y1 + 1)
                if (arr := cells.get((x, y))) is not None
            ]
        if not parts:
            return _EMPTY_IDS.copy()
        cand = np.concatenate(parts)
        keep = within_ball(self._points[cand], center, radius)
        return np.sort(cand[keep])

    def _grid_view(self) -> GridIndex | None:
        """The patched cell table wrapped as a static :class:`GridIndex`.

        Built lazily from the live cell map (one pass over the occupied
        cells) and kept until the next membership change, so a stream of bulk
        queries between updates pays the flattening once.  ``None`` signals
        the packed-key span overflowed and callers must loop the scalar query
        (the same regime in which a static grid build refuses).
        """
        if self._bulk_view is None:
            keys = np.fromiter(
                (coord for cell in self._cells for coord in cell), dtype=np.int64
            ).reshape(-1, 2)
            try:
                self._bulk_view = GridIndex.from_cell_table(
                    self._points, self.cell_size, keys, list(self._cells.values())
                )
            except ValueError:
                self._bulk_view = False
        return self._bulk_view or None

    # -- queries (id space) -----------------------------------------------------
    def query_radius(self, center: Iterable[float], radius: float) -> np.ndarray:
        """Ids of alive nodes within the exact closed ball, ascending."""
        _check_radius(radius)
        center = np.asarray(tuple(center), dtype=np.float64)
        return self._grid_query_one(center, radius)

    def ball_matches(
        self, centers: np.ndarray, radius: float, self_join: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every (center row, alive id) pair within ``radius``: flat ``(owners, members)``, unordered.

        The flat form the bulk queries and the topology tracker consume: the
        static one-gather ``_matches`` engine run over a
        :meth:`~repro.geometry.index.GridIndex.from_cell_table` view of the
        patched cell table.  With ``self_join`` (the centers are the alive nodes, in
        :meth:`ids` order) each unordered pair is guaranteed only once, in
        either orientation (see ``GridIndex._matches``).
        """
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0 or self._n_alive == 0:
            return _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
        view = self._grid_view()
        if view is None:  # packed-key span overflow: scalar fallback
            return _flatten_lists([self._grid_query_one(c, radius) for c in centers])
        return view._matches(centers, radius, self_join)

    def query_radius_many(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        """Per-center id arrays, vectorised (byte-identical to the scalar loop).

        Groups :meth:`ball_matches` per center, with node ids (bounded by the
        id high-water mark) as the minor sort key.
        """
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0:
            return []
        if self._n_alive == 0:
            return [_EMPTY_IDS.copy() for _ in range(len(centers))]
        owners, members = self.ball_matches(centers, radius)
        return kernel_ops.pair_candidates(owners, members, len(centers), self._size)

    def count_radius_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per-center neighbour counts (vectorised; equal to scalar-query lengths)."""
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0 or self._n_alive == 0:
            return np.zeros(len(centers), dtype=np.int64)
        owners, _ = self.ball_matches(centers, radius)
        return kernel_ops.count_in_balls(owners, len(centers))

    def neighbours_of(self, node_id: int, radius: float) -> np.ndarray:
        """Ids within ``radius`` of the alive node ``node_id`` (self excluded)."""
        result = self.query_radius(self.position_of(node_id), radius)
        return result[result != int(node_id)]

    def neighbour_lists(self, radius: float, include_self: bool = False) -> List[np.ndarray]:
        """Neighbour id array per alive node, in :meth:`ids` order (one bulk query)."""
        _check_radius(radius)
        ids = self.ids()
        if len(ids) == 0:
            return []
        lists = self.query_radius_many(self._points[ids], radius)
        if include_self:
            return lists
        return [arr[arr != node_id] for node_id, arr in zip(ids.tolist(), lists)]

    def query_pairs(self, radius: float) -> np.ndarray:
        """All alive id pairs within ``radius`` (``i < j``, lexicographic)."""
        _check_radius(radius)
        ids = self.ids()
        owners, members = self.ball_matches(self._points[ids], radius, self_join=True)
        return _canonical_pairs(ids[owners], members)
