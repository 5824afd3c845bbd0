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
twice, as ``i → j`` and ``j → i``, in one sorted array: node ``a``'s edges
are then the contiguous slice between ``a * 2**31`` and ``(a + 1) * 2**31``,
so an update reads and rewrites only the dirty nodes' slices.  What remains
O(E) per changed step is the memmove that writes the change back into the
store (``np.delete`` then ``np.insert``).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EdgeDiff:
    """Edge delta of one timestep, in stable node-id space.

    ``added`` / ``removed`` are ``(m, 2)`` id pairs, smaller id first, rows
    lexicographic — the same canonical shape the graph builders emit.
    """

    added: np.ndarray
    removed: np.ndarray

    @property
    def n_added(self) -> int:
        return len(self.added)

    @property
    def n_removed(self) -> int:
        return len(self.removed)

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
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.index = index
        self.radius = float(radius)
        index.consume_dirty()  # updates before tracking started are not diffs
        #: Canonical ``i < j`` keys, derived from the directed store on demand.
        self._canonical: np.ndarray | None = self._recompute()
        self._directed = _both_ways(self._canonical)

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
        if self._canonical is None:
            keys = self._directed
            self._canonical = keys[keys // _ENC < keys % _ENC]
        return self._canonical

    @property
    def n_edges(self) -> int:
        return len(self._directed) // 2

    def edges(self) -> np.ndarray:
        """Current ``(m, 2)`` edge array (id space, lexicographic)."""
        return _decode(self._keys())

    def neighbours(self, node: int) -> np.ndarray:
        """Ascending ids of ``node``'s UDG neighbours: its slice of the directed store.

        Equal to ``index.neighbours_of(node, radius)`` for an alive node and
        a positive radius (both decide membership with the index's exact
        ball test, and neither lists the node itself).
        """
        keys = self._directed
        lo, hi = np.searchsorted(keys, (node * _ENC, (node + 1) * _ENC)).tolist()
        return keys[lo:hi] % _ENC

    def update(
        self, dirty: np.ndarray | None = None, deleted: np.ndarray | None = None
    ) -> EdgeDiff:
        """Repair the edge set after index updates; returns what changed.

        Only edges incident to a dirty (moved/inserted) or deleted node are
        re-examined: they are read off those nodes' contiguous slices of the
        directed store, the dirty nodes' closed balls are re-queried with one
        bulk query, and the difference is spliced back.  Edges between two
        untouched nodes are provably unchanged and never visited.

        With no arguments the tracker consumes the index's own dirty stream;
        pass an already-consumed ``(dirty, deleted)`` pair explicitly when
        another consumer (e.g. the
        :class:`~repro.distributed.repair.DistributedRepairEngine`) shares
        the same stream.  Passing only one of the two is rejected — it would
        silently drop the other half of the diff.
        """
        if (dirty is None) != (deleted is None):
            raise ValueError("pass both dirty and deleted (one consumed stream), or neither")
        if len(self.index.id_positions()) > _ENC:
            raise ValueError("node ids past 2**31 cannot be edge-encoded")
        if dirty is None:
            dirty, deleted = self.index.consume_dirty()
        dirty = np.asarray(dirty, dtype=np.int64).reshape(-1)
        deleted = np.asarray(deleted, dtype=np.int64).reshape(-1)
        if dirty.size == 0 and deleted.size == 0:
            return EdgeDiff(_EMPTY_EDGES.copy(), _EMPTY_EDGES.copy())
        affected = np.union1d(dirty, deleted)
        keys = self._directed
        bounds = np.searchsorted(keys, np.stack([affected, affected + 1]) * _ENC).tolist()
        incident = np.concatenate([keys[lo:hi] for lo, hi in zip(*bounds)])
        old = _pair_keys(incident // _ENC, incident % _ENC)

        fresh = _EMPTY_KEYS
        if self.radius > 0 and dirty.size:
            owners, members = self.index.ball_matches(self.index.id_positions()[dirty], self.radius)
            fresh = _pair_keys(dirty[owners], members)

        added = np.setdiff1d(fresh, old, assume_unique=True)
        removed = np.setdiff1d(old, fresh, assume_unique=True)
        if added.size or removed.size:
            kept = np.delete(keys, np.searchsorted(keys, _both_ways(removed)))
            add = _both_ways(added)
            self._directed = np.insert(kept, np.searchsorted(kept, add), add)
            self._canonical = None
        return EdgeDiff(_decode(added), _decode(removed))

    def matches_recompute(self) -> bool:
        """Whether both orientations of the maintained edges equal a recompute."""
        expected = self._recompute()
        return np.array_equal(self._keys(), expected) and np.array_equal(
            self._directed, _both_ways(expected)
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

