"""Diff-driven repair of the distributed construction.

Re-running :func:`~repro.distributed.construct.distributed_build` from scratch
on every timestep of a mobile deployment pays the full Figure-7 price —
re-grouping all nodes into tiles, re-electing every region, re-handshaking
every good pair — even when only a handful of nodes moved.  The construction,
however, is perfectly local: every decision of the algorithm is a function of
one tile's membership and coordinates (elections, goodness) or of one
adjacent tile pair's elected leaders (overlay edges).  A diff of node
positions therefore bounds exactly which decisions can change.

:class:`DistributedRepairEngine` exploits that.  It consumes the dirty-id
stream of a :class:`~repro.dynamics.incremental.DynamicSpatialIndex` (the
same stream the :class:`~repro.dynamics.topology.TopologyTracker` repairs UDG
edges from — pass the consumed ``(dirty, deleted)`` pair explicitly to share
one stream between both consumers) and, per :meth:`~DistributedRepairEngine.update`:

1. **Re-tiles only the moved/inserted/deleted nodes** — a moved node marks
   its old and new tile dirty (a move *within* a tile still changes election
   distances, so the tile is dirty even without a membership change).
2. **Re-elects and re-classifies only the dirty tiles**, in one
   :func:`~repro.core.goodness.decide_tiles` call over the members of every
   dirty tile — the vectorised decision pass the centralised classifier and
   the shard workers share — then diffs each tile's outcome against the
   stored one.  ``distributed_build`` decides through its own scalar
   helpers, so :meth:`~DistributedRepairEngine.matches_rebuild` compares two
   independent implementations, and the property tests pin the equality
   over random mobility/churn interleavings.
3. **Re-splices only the overlay edges of tile pairs whose endpoints
   changed** (representative, relays or goodness), via
   :func:`~repro.core.overlay.cross_tile_edges`; edges between two
   untouched good tiles are never revisited.  The overlay's node
   adjacency (:attr:`~DistributedRepairEngine.adjacency`) is patched with
   each re-spliced pair's edges, so a route search never rebuilds it.

Everything runs in stable *node-id* space, so results remain comparable
across arrivals and failures; a from-scratch ``distributed_build`` over the
compacted positions maps onto the engine's result through
``index.ids()[...]``.

The engine computes the protocol's decisions directly instead of simulating
message delivery (the deterministic election rule is exactly what the
messaging converges to), but it keeps faithful
:class:`~repro.distributed.network.NetworkStats` accounting of the messages
and rounds the repair protocol *would* exchange: candidate broadcasts in
re-elected regions, connect/goodness handshakes in re-decided tiles
(:func:`decision_messages`, also used by the shard workers), border
handshakes on re-spliced pairs.  Comparing that against a from-scratch run's
stats is the message-complexity story of the M02 workload.  What the engine
deliberately does not re-verify is radio-range locality — that is a property
of the construction's geometry (checked by the simulated
``distributed_build`` and the spec's guarantee margins), not of the repair.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.goodness import TileDecisions, decide_tiles
from repro.core.overlay import cross_tile_edges
from repro.core.tiles_base import TileSpec
from repro.core.tiling import DIRECTION_OFFSETS, TileIndex, Tiling
from repro.distributed.construct import DistributedBuildResult, distributed_build
from repro.distributed.network import NetworkStats
from repro.geometry.primitives import Rect
from repro.kernels import ops as kernel_ops

if TYPE_CHECKING:  # no runtime dependency on the dynamics layer
    from repro.dynamics.incremental import DynamicSpatialIndex

__all__ = ["RepairReport", "DistributedRepairEngine", "repair_build", "decision_messages"]

#: A tile's overlay-relevant outcome: (good, representative, relays of a good
#: tile); tiles without members, or without a representative in a bad tile,
#: read as the empty outcome.
_Outcome = Tuple[bool, Optional[int], Dict[str, int]]
_NO_OUTCOME: _Outcome = (False, None, {})

#: Synchronous rounds of one construction pass (election, connect-request,
#: connect-ack, goodness, border) — what a repair step re-runs for its dirty
#: tiles.
_PROTOCOL_ROUNDS = 5


def decision_messages(
    decisions: TileDecisions, spec: TileSpec, select: Optional[np.ndarray] = None
) -> Dict[str, int]:
    """Intra-tile protocol messages of decided tiles (all, or the ``select`` mask).

    What ``distributed_build`` sends for those tiles: ``m·(m-1)`` candidate
    broadcasts per region of ``m ≥ 2`` members, one connect-request and one
    connect-ack per present relay leader other than the representative, and
    as many tile-good announcements in good tiles.  Kinds with no messages
    are omitted, as :class:`~repro.distributed.network.NetworkStats` never
    records them.
    """
    counts, leaders, good = decisions.region_counts, decisions.leaders, decisions.good
    if select is not None:
        counts, leaders, good = counts[select], leaders[select], good[select]
    rep = leaders[:, spec.region_columns.representative]
    # The representative's own column never differs from it, so it counts no
    # handshake.
    present = (leaders >= 0) & (leaders != rep[:, None]) & (rep >= 0)[:, None]
    handshakes = present.sum(axis=1)
    handshake_total = int(handshakes.sum())
    messages = {
        "candidate": int((counts * (counts - 1)).sum()),
        "connect-request": handshake_total,
        "connect-ack": handshake_total,
        "tile-good": int(handshakes[good].sum()),
    }
    return {kind: n for kind, n in messages.items() if n > 0}


@dataclass(frozen=True)
class RepairReport:
    """What one :meth:`DistributedRepairEngine.update` actually did.

    ``dirty_tiles`` counts tiles whose election inputs changed (membership or
    member coordinates); ``changed_tiles`` the subset whose *outcome*
    (goodness, representative or relays) changed; ``respliced_pairs`` the
    adjacent tile pairs whose overlay edges were recomputed; ``messages`` the
    protocol messages the repair exchanged.  A report full of zeros means the
    diff provably could not have changed the overlay.
    """

    dirty_tiles: int
    changed_tiles: int
    re_elected_regions: int
    respliced_pairs: int
    messages: int

    @property
    def touched(self) -> bool:
        return self.dirty_tiles > 0


class DistributedRepairEngine:
    """Maintains a :class:`DistributedBuildResult` over a dynamic deployment.

    Parameters
    ----------
    index:
        The :class:`~repro.dynamics.incremental.DynamicSpatialIndex` holding
        the deployment.  Construction performs one full pass over the current
        alive nodes and consumes any pending dirty stream (updates made
        before the engine existed are already reflected in the full pass).
    spec:
        Tile specification (UDG or NN), as for ``distributed_build``.
    window:
        Deployment window defining the tiling.
    k:
        NN occupancy-cap parameter (ignored by UDG specs).

    After construction, call :meth:`update` once per batch of index updates;
    :meth:`result` returns the current spliced build at any time.
    """

    def __init__(
        self,
        index: "DynamicSpatialIndex",
        spec: TileSpec,
        window: Rect,
        k: int | None = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.window = window
        self.k = k
        self.tiling = Tiling(window=window, tile_side=spec.tile_side)
        self.stats = NetworkStats()

        #: tile → set of member node ids (in-grid tiles with ≥ 1 member only).
        self._members: Dict[TileIndex, Set[int]] = {}
        #: node id → its in-grid tile (off-grid nodes are absent).
        self._node_tile: Dict[int, TileIndex] = {}
        #: tile → (good, representative, relays) as decide_tiles reports it.
        self._outcome: Dict[TileIndex, _Outcome] = {}
        #: (tile, direction) → spliced overlay edges of that good pair.
        self._pair_edges: Dict[Tuple[TileIndex, str], List[Tuple[int, int]]] = {}
        #: overlay edge → number of pair fragments that carry it (two pairs
        #: share an edge when one point fulfils two relay functions).
        self._edge_refs: Dict[Tuple[int, int], int] = {}
        #: node id → its overlay neighbours, ascending (nodes with ≥ 1 edge).
        self._adjacency: Dict[int, List[int]] = {}
        #: The spliced :meth:`result`, memoised until an update changes a tile.
        self._result: Optional[DistributedBuildResult] = None

        # The full pass is a repair from the empty state in which every alive
        # node is new; it costs one protocol execution even with no nodes.
        index.consume_dirty()
        self._repair(index.ids(), np.zeros(0, dtype=np.int64))
        self.stats.rounds = _PROTOCOL_ROUNDS

    # -- construction ----------------------------------------------------------
    def _count(self, kind: str, n: int) -> None:
        if n <= 0:
            return
        self.stats.messages_sent += n
        self.stats.messages_by_kind[kind] = self.stats.messages_by_kind.get(kind, 0) + n

    def _decide(self, tiles: Set[TileIndex]) -> Tuple[List[TileIndex], int]:
        """Re-run election + goodness for ``tiles`` in one :func:`decide_tiles` pass.

        Returns ``(changed, regions_elected)``: the tiles whose outcome — the
        triple the overlay depends on: goodness, representative, relays —
        changed, and the number of non-empty regions re-elected.
        """
        ids = np.fromiter(
            chain.from_iterable(self._members.get(tile, ()) for tile in tiles), dtype=np.int64
        )
        decisions = decide_tiles(self.index.id_positions(), ids, self.tiling, self.spec, self.k)
        for kind, n in decision_messages(decisions, self.spec).items():
            self._count(kind, n)
        decided = {tile: (good, rep, relays) for tile, good, rep, relays in decisions.outcomes(self.spec)}
        changed: List[TileIndex] = []
        for tile in tiles:
            new = decided.get(tile)
            if new is None:
                self._members.pop(tile, None)
                new = _NO_OUTCOME
            if self._outcome.pop(tile, _NO_OUTCOME) != new:
                changed.append(tile)
            if new != _NO_OUTCOME:
                self._outcome[tile] = new
        return changed, int(np.count_nonzero(decisions.region_counts))

    def _resplice_pair(self, tile: TileIndex, direction: str) -> bool:
        """Recompute one adjacent pair's overlay edges; True when it is live.

        Only in-grid tiles carry an outcome, so a pair of good tiles is a
        pair of in-grid neighbours.
        """
        dc, dr = DIRECTION_OFFSETS[direction]
        good_a, rep_a, relays_a = self._outcome.get(tile, _NO_OUTCOME)
        good_b, rep_b, relays_b = self._outcome.get((tile[0] + dc, tile[1] + dr), _NO_OUTCOME)
        key = (tile, direction)
        old = self._pair_edges.pop(key, [])
        live = bool(good_a and good_b)
        edges: List[Tuple[int, int]] = []
        if live:
            edges, (u, v) = cross_tile_edges(self.spec, direction, rep_a, relays_a, rep_b, relays_b)
            self._pair_edges[key] = edges
            if u != v:
                self._count("border-request", 1)
                self._count("border-ack", 1)
        if edges != old:
            for edge in old:
                self._unlink(edge)
            for edge in edges:
                self._link(edge)
        return live

    def _link(self, edge: Tuple[int, int]) -> None:
        refs = self._edge_refs.get(edge, 0)
        self._edge_refs[edge] = refs + 1
        if not refs:
            u, v = edge
            insort(self._adjacency.setdefault(u, []), v)
            insort(self._adjacency.setdefault(v, []), u)

    def _unlink(self, edge: Tuple[int, int]) -> None:
        refs = self._edge_refs.pop(edge) - 1
        if refs:
            self._edge_refs[edge] = refs
            return
        for a, b in (edge, edge[::-1]):
            row = self._adjacency[a]
            row.remove(b)
            if not row:
                del self._adjacency[a]

    # -- repair ----------------------------------------------------------------
    def update(
        self,
        dirty: Optional[np.ndarray] = None,
        deleted: Optional[np.ndarray] = None,
    ) -> RepairReport:
        """Absorb an index diff and repair only what it can have changed.

        With no arguments the engine consumes the index's own dirty stream
        (:meth:`~repro.dynamics.incremental.DynamicSpatialIndex.consume_dirty`);
        pass the already-consumed ``(dirty, deleted)`` pair explicitly when a
        topology tracker shares the same stream.  Passing only one of the
        two is rejected — it would silently drop the other half of the diff.
        """
        if (dirty is None) != (deleted is None):
            raise ValueError(
                "pass both dirty and deleted (one consumed stream), or neither"
            )
        if dirty is None:
            dirty, deleted = self.index.consume_dirty()
        dirty = np.asarray(dirty, dtype=np.int64).reshape(-1)
        deleted = np.asarray(deleted, dtype=np.int64).reshape(-1)
        if dirty.size == 0 and deleted.size == 0:
            # An empty diff provably cannot change any tile: true no-op —
            # no dirty-set bookkeeping, no stats churn, no protocol rounds.
            return RepairReport(0, 0, 0, 0, 0)
        return self._repair(dirty, deleted)

    def _repair(self, dirty: np.ndarray, deleted: np.ndarray) -> RepairReport:
        messages_before = self.stats.messages_sent

        # Every dirty or deleted node leaves its tile; dirty in-grid nodes
        # then join their current tile (possibly the same one).
        dirty_tiles: Set[TileIndex] = set()
        for node in chain(deleted.tolist(), dirty.tolist()):
            tile = self._node_tile.pop(node, None)
            if tile is not None:
                self._members[tile].discard(node)
                dirty_tiles.add(tile)
        tiles = self.tiling.tile_of_points(self.index.id_positions()[dirty])
        in_grid = self.tiling.in_grid_mask(tiles).tolist()
        for node, tile, inside in zip(dirty.tolist(), map(tuple, tiles.tolist()), in_grid):
            if inside:
                self._members.setdefault(tile, set()).add(node)
                self._node_tile[node] = tile
                dirty_tiles.add(tile)

        changed, re_elected = self._decide(dirty_tiles)
        if changed:
            # Only a changed tile's outcome, and the pairs re-spliced around
            # it, feed result(); the stats it carries are the live object.
            self._result = None

        pairs: Set[Tuple[TileIndex, str]] = set()
        for col, row in changed:
            pairs.add(((col, row), "right"))
            pairs.add(((col, row), "top"))
            pairs.add(((col - 1, row), "right"))
            pairs.add(((col, row - 1), "top"))
        respliced = sum(1 for tile, direction in pairs if self._resplice_pair(tile, direction))

        if dirty_tiles:
            self.stats.rounds += _PROTOCOL_ROUNDS
        return RepairReport(
            dirty_tiles=len(dirty_tiles),
            changed_tiles=len(changed),
            re_elected_regions=re_elected,
            respliced_pairs=respliced,
            messages=self.stats.messages_sent - messages_before,
        )

    # -- views -----------------------------------------------------------------
    @property
    def adjacency(self) -> Mapping[int, List[int]]:
        """Node id → its neighbours in the current overlay, ascending.

        Kept up to date as pairs are re-spliced, so reading it never
        re-splices the overlay; nodes without overlay edges are absent.
        Equal to the rows of ``result().edges``; treat it as read-only.
        """
        return self._adjacency

    def representative(self, tile: TileIndex) -> Optional[int]:
        """The representative of a good ``tile``, ``None`` for any other tile."""
        good, rep, _ = self._outcome.get(tile, _NO_OUTCOME)
        return rep if good else None

    def result(self) -> DistributedBuildResult:
        """The current spliced build, in stable node-id space.

        ``good_tiles`` is sorted (the canonical order — ``distributed_build``
        emits discovery order instead, so compare as sets); edges are sorted
        ``(min, max)`` pairs exactly as the from-scratch result's.  ``stats``
        is the engine's *cumulative* protocol accounting: the initial full
        pass plus every repair since.

        The result is spliced once and then returned as the same object
        until an :meth:`update` changes some tile's outcome; treat it as
        read-only.
        """
        if self._result is None:
            # Canonical sorted pairs from the distinct edges of the per-(tile,
            # direction) fragments, in one splice_edges conversion.
            edge_array = kernel_ops.splice_edges([list(self._edge_refs)])
            good_tiles = sorted(tile for tile, (good, _, _) in self._outcome.items() if good)
            self._result = DistributedBuildResult(
                edges=edge_array,
                representatives={tile: self._outcome[tile][1] for tile in good_tiles},
                relays={tile: dict(self._outcome[tile][2]) for tile in good_tiles},
                good_tiles=good_tiles,
                stats=self.stats,
            )
        return self._result

    def matches_rebuild(self, scratch: DistributedBuildResult | None = None) -> bool:
        """Whether the spliced state equals a from-scratch ``distributed_build``.

        The single equivalence definition every consumer (tests, the S03
        benchmark, the M02 workload, the examples) certifies against: same
        overlay edges, good tiles, representatives *and* relays, with the
        scratch run's compact row indices mapped through ``index.ids()``.
        ``scratch`` may pass a precomputed build over ``index.positions()``
        when the caller also reads its stats.
        """
        got = self.result()
        ids = self.index.ids()
        if scratch is None:
            scratch = distributed_build(
                self.index.positions(), self.spec, self.window, k=self.k
            )
        scratch_edges = (
            ids[scratch.edges] if len(scratch.edges) else np.zeros((0, 2), dtype=np.int64)
        )
        return (
            np.array_equal(got.edges, scratch_edges)
            and set(got.good_tiles) == set(scratch.good_tiles)
            and got.representatives
            == {tile: int(ids[rep]) for tile, rep in scratch.representatives.items()}
            and got.relays
            == {
                tile: {name: int(ids[relay]) for name, relay in relays.items()}
                for tile, relays in scratch.relays.items()
            }
        )


def repair_build(
    index: "DynamicSpatialIndex",
    spec: TileSpec,
    window: Rect,
    k: int | None = None,
    engine: DistributedRepairEngine | None = None,
) -> Tuple[DistributedBuildResult, DistributedRepairEngine]:
    """Maintain a distributed build across index updates, one call per step.

    The first call (``engine=None``) runs the full pass and returns the
    result plus the engine to thread through subsequent calls; each later
    call absorbs the diff accumulated in the index since the previous one and
    returns the repaired result::

        result, engine = repair_build(index, spec, window)
        ...
        index.move(ids, new_positions)
        result, engine = repair_build(index, spec, window, engine=engine)

    Equivalent to ``distributed_build`` over the surviving positions at every
    step (modulo the id ↔ compact-row mapping), at a cost proportional to the
    diff instead of the deployment.
    """
    if engine is None:
        engine = DistributedRepairEngine(index, spec, window, k=k)
    else:
        engine.update()
    return engine.result(), engine
