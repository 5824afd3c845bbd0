"""Incremental topology maintenance: per-step edge diffs instead of rebuilds.

:class:`TopologyTracker` keeps the unit-disk edge set of a
:class:`~repro.dynamics.incremental.DynamicSpatialIndex` current by repairing
only the neighbourhoods that can have changed.  UDG edges have perfect
locality — an edge can appear or disappear only if one of its endpoints
moved, arrived or failed — so each :meth:`~TopologyTracker.update` queries
just the nodes the index marked dirty since the last step, leaves every edge
between two untouched nodes alone, and returns the resulting
:class:`EdgeDiff`.  Downstream consumers (graph metrics, the distributed
construction's repair path) can then process deltas instead of recomputing
the whole graph; :meth:`TopologyTracker.graph` materialises a
:class:`~repro.graphs.base.GeometricGraph` when a consumer does want the full
picture.

Edges travel in stable *node-id* space (pairs ``(i, j)``, ``i < j``,
lexicographic), encoded internally as int64 keys ``i * 2**31 + j`` so diffs
are set operations on sorted arrays.  The tracker stores every edge
twice, as ``i → j`` and ``j → i``, in one padded row per node id (a
:class:`_RowStore`): row ``a`` holds ``a``'s neighbour ids ascending, followed
by unused slack.  An update reads the live prefixes of the dirty and deleted
nodes' rows and rewrites only the rows whose edges changed, so a tick costs
O(changed rows · degree), independent of the number of edges E.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.dynamics.incremental import DynamicSpatialIndex
from repro.graphs.base import GeometricGraph

__all__ = ["EdgeDiff", "TopologyTracker"]

#: Edge keys pack two ids into one int64: ``i * 2**31 + j``.  2³¹ nodes is far
#: beyond anything the simulator holds in memory; the bound is checked.
_ENC = np.int64(2**31)

_EMPTY_KEYS = np.zeros(0, dtype=np.int64)
_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)


def _encode(pairs: np.ndarray) -> np.ndarray:
    """Sorted int64 keys of an ``(m, 2)`` id-pair array (``i < j`` rows)."""
    if len(pairs) == 0:
        return _EMPTY_KEYS.copy()
    if pairs.max() >= _ENC:
        raise ValueError("node ids past 2**31 cannot be edge-encoded")
    return np.sort(pairs[:, 0] * _ENC + pairs[:, 1])


def _decode(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_encode`; sorted keys give lexicographic rows."""
    if len(keys) == 0:
        return _EMPTY_EDGES.copy()
    return np.column_stack([keys // _ENC, keys % _ENC])


def _pair_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Sorted unique canonical keys of the id pairs ``(src[k], dst[k])``, self-pairs dropped.

    Sort plus an adjacent-duplicate mask: ``np.unique`` is several times
    slower on int64 keys.
    """
    keep = np.flatnonzero(src != dst)
    src, dst = src.take(keep), dst.take(keep)
    keys = np.minimum(src, dst) * _ENC + np.maximum(src, dst)
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def _both_ways(keys: np.ndarray) -> np.ndarray:
    """Sorted directed keys holding each canonical key ``i*2³¹+j`` as both ``i→j`` and ``j→i``."""
    return np.sort(np.concatenate([keys, keys % _ENC * _ENC + keys // _ENC]))


def _isin_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of ``values`` present in the sorted array ``keys``."""
    if len(keys) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(keys, values)
    return keys.take(np.minimum(pos, len(keys) - 1)) == values


#: Marks a free slot of a :class:`_RowStore` row; sorts after every id.
_FREE = np.iinfo(np.uint32).max


def _padded_width(degree: int) -> int:
    """Row width for a largest degree: a quarter spare, in multiples of 16."""
    return max(16, -(-(degree + degree // 4) // 16) * 16)


class _RowStore:
    """Directed edge keys as one padded row per node id.

    Row ``a`` holds ``a``'s neighbour ids ascending in its first
    ``degree[a]`` slots, and :data:`_FREE` in every slot after them.
    Reading the rows of ascending nodes therefore yields their directed keys
    ``a * 2**31 + b`` already sorted, and a write-back reads and rewrites
    only the rows it changes.  Rows are uint32 (ids are below ``2**31``);
    the row count grows with the id high-water mark and the width with the
    largest degree.
    """

    def __init__(self, n_rows: int = 0, width: int = 16) -> None:
        self.rows = np.full((n_rows, width), _FREE, dtype=np.uint32)
        self.degree = np.zeros(n_rows, dtype=np.int64)

    @classmethod
    def from_keys(cls, keys: np.ndarray, n_rows: int) -> "_RowStore":
        """A store holding the sorted directed ``keys`` over ``n_rows`` ids."""
        src = keys // _ENC
        degree = np.bincount(src, minlength=n_rows)
        store = cls(n_rows, _padded_width(int(degree.max(initial=0))))
        cols = np.arange(len(keys), dtype=np.int64) - np.repeat(np.cumsum(degree) - degree, degree)
        store.rows[src, cols] = keys - src * _ENC
        store.degree = degree
        return store

    def reserve(self, n_rows: int, width: int = 0) -> None:
        """Grow to at least ``n_rows`` rows and ``width`` slots per row."""
        rows, cols = self.rows.shape
        if n_rows <= rows and width <= cols:
            return
        if n_rows > rows:
            n_rows = max(n_rows, rows + rows // 4 + 8)
            self.degree = np.concatenate([self.degree, np.zeros(n_rows - rows, dtype=np.int64)])
        grown = np.full((max(n_rows, rows), max(_padded_width(width), cols)), _FREE, dtype=np.uint32)
        grown[:rows, :cols] = self.rows
        self.rows = grown

    def row(self, node: int) -> np.ndarray:
        """Ascending neighbour ids of ``node`` (empty for an id the store never held)."""
        if not 0 <= node < len(self.degree):
            return _EMPTY_KEYS.copy()
        return self.rows[node, : self.degree[node]].astype(np.int64)

    def gather(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(owners, members)`` of the live slots of ``nodes``' rows, row after row."""
        block = self.rows.take(nodes, axis=0)
        members = block[block != _FREE].astype(np.int64)
        return np.repeat(nodes, self.degree.take(nodes)), members

    def keys(self) -> np.ndarray:
        """Every stored directed key, sorted."""
        owners, members = self.gather(np.flatnonzero(self.degree))
        return owners * _ENC + members

    def splice(self, removed: np.ndarray, added: np.ndarray) -> None:
        """Drop the directed keys ``removed`` and add the sorted keys ``added``.

        Every removed key must be stored and no added key may be.  The rows
        that own a changed key are copied out as one block; each removed key
        becomes a free slot, each added key fills a free slot after its row's
        live ones, and one sort per row restores the layout before the block
        is written back.
        """
        if len(removed) == 0 and len(added) == 0:
            return
        rem_src = removed // _ENC
        add_src = added // _ENC
        owners = np.concatenate([rem_src, add_src])
        owners.sort()
        touched = owners[np.concatenate(([True], owners[1:] != owners[:-1]))]
        self.reserve(int(touched[-1]) + 1)
        at_rem = np.searchsorted(touched, rem_src)
        at_add = np.searchsorted(touched, add_src)
        degree = self.degree.take(touched)
        grown = degree + np.bincount(at_add, minlength=len(touched))
        self.reserve(0, int(grown.max()))
        block = self.rows.take(touched, axis=0)
        rem_dst = (removed - rem_src * _ENC)[:, None]
        block[at_rem, (block.take(at_rem, axis=0) == rem_dst).argmax(axis=1)] = _FREE
        # ``added`` is sorted, so each key's rank within its row is its
        # distance from the row's first added key.
        rank = np.arange(len(added), dtype=np.int64) - np.searchsorted(add_src, add_src)
        block[at_add, degree.take(at_add) + rank] = added - add_src * _ENC
        block.sort(axis=1)
        self.rows[touched] = block
        self.degree[touched] = grown - np.bincount(at_rem, minlength=len(touched))


@dataclass(frozen=True)
class EdgeDiff:
    """Edge delta of one timestep, in stable node-id space.

    Built from the sorted canonical keys of the added and removed edges;
    :attr:`added` / :attr:`removed` decode them on first read into ``(m, 2)``
    id pairs, smaller id first, rows lexicographic — the same canonical
    shape the graph builders emit.  The counts never decode.
    """

    added_keys: np.ndarray
    removed_keys: np.ndarray

    @cached_property
    def added(self) -> np.ndarray:
        return _decode(self.added_keys)

    @cached_property
    def removed(self) -> np.ndarray:
        return _decode(self.removed_keys)

    @property
    def n_added(self) -> int:
        return len(self.added_keys)

    @property
    def n_removed(self) -> int:
        return len(self.removed_keys)

    @property
    def churn(self) -> int:
        """Total number of edge changes this step."""
        return self.n_added + self.n_removed


class TopologyTracker:
    """Maintains the UDG edge set of a dynamic index through local repairs.

    Parameters
    ----------
    index:
        The dynamic index whose alive nodes define the graph.  The tracker
        takes over the index's dirty-id stream (it calls
        :meth:`~repro.dynamics.incremental.DynamicSpatialIndex.consume_dirty`),
        so use one tracker per index.
    radius:
        UDG connection radius.  Mirroring
        :func:`repro.graphs.udg.udg_edges`, ``radius == 0`` yields an edgeless
        graph (a zero-range radio connects nothing) rather than the raw
        index layer's coincident-point matching.
    """

    def __init__(self, index: DynamicSpatialIndex, radius: float) -> None:
        radius = float(radius)
        if not np.isfinite(radius) or radius < 0:
            raise ValueError(f"radius must be finite and non-negative, got {radius!r}")
        self.index = index
        self.radius = radius
        index.consume_dirty()  # updates before tracking started are not diffs
        canonical = self._recompute()
        self._n_edges = len(canonical)
        self._store = _RowStore.from_keys(_both_ways(canonical), len(index.id_positions()))

    def _recompute(self) -> np.ndarray:
        """Sorted canonical keys of every edge, from one flat self-join of the index."""
        if self.radius <= 0:
            return _EMPTY_KEYS
        ids = self.index.ids()
        owners, members = self.index.ball_matches(
            self.index.id_positions()[ids], self.radius, self_join=True
        )
        return _pair_keys(ids.take(owners), members)

    def _keys(self) -> np.ndarray:
        """Sorted canonical ``i < j`` keys of the maintained edges."""
        keys = self._store.keys()
        return keys[keys // _ENC < keys % _ENC]

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def edges(self) -> np.ndarray:
        """Current ``(m, 2)`` edge array (id space, lexicographic)."""
        return _decode(self._keys())

    def neighbours(self, node: int) -> np.ndarray:
        """Ascending ids of ``node``'s UDG neighbours: its row of the directed store.

        Equal to ``index.neighbours_of(node, radius)`` for an alive node and
        a positive radius (both decide membership with the index's exact
        ball test, and neither lists the node itself).
        """
        return self._store.row(int(node))

    def update(
        self, dirty: np.ndarray | None = None, deleted: np.ndarray | None = None
    ) -> EdgeDiff:
        """Repair the edge set after index updates; returns what changed.

        Only edges incident to a dirty (moved/inserted) or deleted node are
        re-examined: they are read off those nodes' rows of the directed
        store, the dirty nodes' closed balls are re-queried with one bulk
        query, and the difference is written back into the rows it touches.
        Edges between two untouched nodes are provably unchanged and never
        visited.

        With no arguments the tracker consumes the index's own dirty stream;
        pass an already-consumed ``(dirty, deleted)`` pair explicitly when
        another consumer (e.g. the
        :class:`~repro.distributed.repair.DistributedRepairEngine`) shares
        the same stream.  Passing only one of the two is rejected — it would
        silently drop the other half of the diff.
        """
        if (dirty is None) != (deleted is None):
            raise ValueError("pass both dirty and deleted (one consumed stream), or neither")
        n_ids = len(self.index.id_positions())
        if n_ids > _ENC:
            raise ValueError("node ids past 2**31 cannot be edge-encoded")
        if dirty is None:
            dirty, deleted = self.index.consume_dirty()
        dirty = np.asarray(dirty, dtype=np.int64).reshape(-1)
        deleted = np.asarray(deleted, dtype=np.int64).reshape(-1)
        if dirty.size == 0 and deleted.size == 0:
            return EdgeDiff(_EMPTY_KEYS, _EMPTY_KEYS)
        store = self._store
        store.reserve(n_ids)
        old = _pair_keys(*store.gather(np.concatenate([dirty, deleted])))

        fresh = _EMPTY_KEYS
        if self.radius > 0 and dirty.size:
            owners, members = self.index.ball_matches(self.index.id_positions()[dirty], self.radius)
            fresh = _pair_keys(dirty.take(owners), members)

        added = fresh[~_isin_sorted(fresh, old)]
        removed = old[~_isin_sorted(old, fresh)]
        if added.size or removed.size:
            store.splice(_both_ways(removed), _both_ways(added))
            self._n_edges += len(added) - len(removed)
        return EdgeDiff(added, removed)

    def matches_recompute(self) -> bool:
        """Whether both orientations of the maintained edges equal a recompute."""
        expected = self._recompute()
        return self._n_edges == len(expected) and np.array_equal(
            self._store.keys(), _both_ways(expected)
        )

    def graph(self, name: str | None = None) -> GeometricGraph:
        """Materialise the current topology as a compacted :class:`GeometricGraph`.

        Node ``k`` of the returned graph is the ``k``-th alive id of the
        index (the :meth:`~repro.dynamics.incremental.DynamicSpatialIndex.ids`
        order), so metrics line up with ``index.positions()``.
        """
        ids = self.index.ids()
        edges = self.edges()
        remapped = np.searchsorted(ids, edges) if len(edges) else _EMPTY_EDGES.copy()
        return GeometricGraph(
            self.index.positions().copy(),
            remapped,
            name=name or f"UDG(r={self.radius:g}, dynamic)",
        )

