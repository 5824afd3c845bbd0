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
2. **Re-elects and re-classifies only the dirty tiles**, through the very
   helpers :func:`distributed_build` itself runs
   (:func:`~repro.distributed.construct.region_members_of_tile`,
   :func:`~repro.distributed.construct.elect_tile_leaders`,
   :func:`~repro.distributed.construct.tile_goodness`) — repair equals
   rebuild by shared implementation, not by luck, and the property tests pin
   it over random mobility/churn interleavings.
3. **Re-splices only the overlay edges of tile pairs whose endpoints
   changed** (representative, relays or goodness), via
   :func:`~repro.distributed.construct.cross_tile_edges`; edges between two
   untouched good tiles are never revisited.

Everything runs in stable *node-id* space, so results remain comparable
across arrivals and failures; a from-scratch ``distributed_build`` over the
compacted positions maps onto the engine's result through
``index.ids()[...]``.

The engine computes the protocol's decisions directly instead of simulating
message delivery (the deterministic election rule is exactly what the
messaging converges to), but it keeps faithful
:class:`~repro.distributed.network.NetworkStats` accounting of the messages
and rounds the repair protocol *would* exchange: candidate broadcasts in
re-elected regions, connect/goodness handshakes in re-decided tiles, border
handshakes on re-spliced pairs.  Comparing that against a from-scratch run's
stats is the message-complexity story of the M02 workload.  What the engine
deliberately does not re-verify is radio-range locality — that is a property
of the construction's geometry (checked by the simulated
``distributed_build`` and the spec's guarantee margins), not of the repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.tiles_base import TileSpec
from repro.core.tiling import TileIndex, Tiling
from repro.distributed.construct import (
    DistributedBuildResult,
    cross_tile_edges,
    distributed_build,
    elect_tile_leaders,
    region_members_of_tile,
    tile_goodness,
)
from repro.distributed.network import NetworkStats
from repro.geometry.primitives import Rect
from repro.kernels import ops as kernel_ops

if TYPE_CHECKING:  # no runtime dependency on the dynamics layer
    from repro.dynamics.incremental import DynamicSpatialIndex

__all__ = ["RepairReport", "DistributedRepairEngine", "repair_build"]

#: Each unordered adjacent tile pair is owned by its left/bottom tile.
_PAIR_DIRECTIONS = ("right", "top")

#: Synchronous rounds of one construction pass (election, connect-request,
#: connect-ack, goodness, border) — what a repair step re-runs for its dirty
#: tiles.
_PROTOCOL_ROUNDS = 5

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


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
        self._cap = spec.max_points_per_tile(k)
        self._rep_region = spec.representative_region
        self.stats = NetworkStats()

        #: tile → set of member node ids (in-grid tiles with ≥ 1 member only).
        self._members: Dict[TileIndex, Set[int]] = {}
        #: node id → its in-grid tile (off-grid nodes are absent).
        self._node_tile: Dict[int, TileIndex] = {}
        #: tile → elected leader per non-empty region (tiles with members only).
        self._leaders: Dict[TileIndex, Dict[str, int]] = {}
        #: good tiles and their present relay mapping.
        self._good: Set[TileIndex] = set()
        self._relays: Dict[TileIndex, Dict[str, int]] = {}
        #: (tile, direction) → spliced overlay edges of that good pair.
        self._pair_edges: Dict[Tuple[TileIndex, str], List[Tuple[int, int]]] = {}
        #: The spliced :meth:`result`, memoised until the next non-empty update.
        self._result: Optional[DistributedBuildResult] = None

        index.consume_dirty()
        self._full_pass()

    # -- construction ----------------------------------------------------------
    def _full_pass(self) -> None:
        ids = self.index.ids()
        if len(ids):
            positions = self.index.id_positions()[ids]
            tiles = self.tiling.tile_of_points(positions)
            in_grid = self.tiling.in_grid_mask(tiles)
            for row in np.nonzero(in_grid)[0].tolist():
                tile = (int(tiles[row, 0]), int(tiles[row, 1]))
                node = int(ids[row])
                self._members.setdefault(tile, set()).add(node)
                self._node_tile[node] = tile
        for tile in list(self._members):
            self._classify_tile(tile)
        for tile in self._good:
            for direction in _PAIR_DIRECTIONS:
                self._resplice_pair(tile, direction)
        self.stats.rounds += _PROTOCOL_ROUNDS

    def _count(self, kind: str, n: int) -> None:
        if n <= 0:
            return
        self.stats.messages_sent += n
        self.stats.messages_by_kind[kind] = self.stats.messages_by_kind.get(kind, 0) + n

    def _classify_tile(self, tile: TileIndex) -> Tuple[bool, int]:
        """Re-run election + goodness for one tile.

        Returns ``(outcome_changed, regions_elected)`` where the outcome is
        the triple the overlay depends on: goodness, representative, relays.
        """
        old = (
            tile in self._good,
            self._leaders.get(tile, {}).get(self._rep_region),
            self._relays.get(tile),
        )
        members = self._members.get(tile)
        if not members:
            self._members.pop(tile, None)
            self._leaders.pop(tile, None)
            self._relays.pop(tile, None)
            self._good.discard(tile)
            return old != (False, None, None), 0

        member_idx = np.fromiter(sorted(members), dtype=np.int64, count=len(members))
        pts = self.index.id_positions()
        center = self.tiling.tile_center(tile)
        regions = region_members_of_tile(pts, member_idx, center, self.spec)
        leaders = elect_tile_leaders(pts, regions, center, self.spec)
        for region_members in regions.values():
            m = len(region_members)
            if m >= 2:
                self._count("candidate", m * (m - 1))
        good, present = tile_goodness(self.spec, leaders, len(member_idx), self._cap)
        if self._rep_region in leaders:
            rep = leaders[self._rep_region]
            handshakes = sum(1 for relay in present.values() if relay != rep)
            self._count("connect-request", handshakes)
            self._count("connect-ack", handshakes)
            if good:
                self._count("tile-good", handshakes)

        self._leaders[tile] = leaders
        if good:
            self._good.add(tile)
            self._relays[tile] = present
        else:
            self._good.discard(tile)
            self._relays.pop(tile, None)
        new = (good, leaders.get(self._rep_region), present if good else None)
        return old != new, len(leaders)

    def _resplice_pair(self, tile: TileIndex, direction: str) -> bool:
        """Recompute one adjacent pair's overlay edges; True when it is live."""
        if not self.tiling.contains_tile(tile):
            return False
        neighbour = self.tiling.neighbours(tile).get(direction)
        key = (tile, direction)
        if neighbour is None or tile not in self._good or neighbour not in self._good:
            self._pair_edges.pop(key, None)
            return False
        edges, (a, b) = cross_tile_edges(
            self.spec,
            direction,
            self._leaders[tile][self._rep_region],
            self._relays[tile],
            self._leaders[neighbour][self._rep_region],
            self._relays[neighbour],
        )
        self._pair_edges[key] = edges
        if a != b:
            self._count("border-request", 1)
            self._count("border-ack", 1)
        return True

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
        self._result = None
        messages_before = self.stats.messages_sent

        dirty_tiles: Set[TileIndex] = set()
        for node in deleted.tolist():
            tile = self._node_tile.pop(node, None)
            if tile is not None:
                self._members[tile].discard(node)
                dirty_tiles.add(tile)
        if dirty.size:
            positions = self.index.id_positions()[dirty]
            tiles = self.tiling.tile_of_points(positions)
            in_grid = self.tiling.in_grid_mask(tiles)
            for i, node in enumerate(dirty.tolist()):
                new_tile = (int(tiles[i, 0]), int(tiles[i, 1])) if in_grid[i] else None
                old_tile = self._node_tile.get(node)
                if old_tile is not None:
                    dirty_tiles.add(old_tile)
                    if new_tile != old_tile:
                        self._members[old_tile].discard(node)
                if new_tile is not None:
                    dirty_tiles.add(new_tile)
                    self._members.setdefault(new_tile, set()).add(node)
                    self._node_tile[node] = new_tile
                elif old_tile is not None:
                    del self._node_tile[node]

        changed: List[TileIndex] = []
        re_elected = 0
        for tile in dirty_tiles:
            outcome_changed, regions = self._classify_tile(tile)
            re_elected += regions
            if outcome_changed:
                changed.append(tile)

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
    def result(self) -> DistributedBuildResult:
        """The current spliced build, in stable node-id space.

        ``good_tiles`` is sorted (the canonical order — ``distributed_build``
        emits discovery order instead, so compare as sets); edges are sorted
        ``(min, max)`` pairs exactly as the from-scratch result's.  ``stats``
        is the engine's *cumulative* protocol accounting: the initial full
        pass plus every repair since.

        The result is spliced once and then returned as the same object
        until the next non-empty :meth:`update`; treat it as read-only.
        """
        if self._result is None:
            # Canonical sorted unique pairs from the per-(tile, direction) edge
            # fragments — the splice_edges kernel replaces the scalar
            # set-union + sorted() splice byte-identically.
            edge_array = kernel_ops.splice_edges(list(self._pair_edges.values()))
            good_tiles = sorted(self._good)
            self._result = DistributedBuildResult(
                edges=edge_array,
                representatives={tile: self._leaders[tile][self._rep_region] for tile in good_tiles},
                relays={tile: dict(self._relays[tile]) for tile in good_tiles},
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
