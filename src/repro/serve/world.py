"""The served state: one apply/query surface over the incremental machinery.

:class:`LiveWorld` is what the daemon owns: a
:class:`~repro.dynamics.incremental.DynamicSpatialIndex` holding the live
deployment, a :class:`~repro.dynamics.topology.TopologyTracker` maintaining
its UDG edge set and a
:class:`~repro.distributed.repair.DistributedRepairEngine` maintaining the
Figure-7 overlay — all three fed from *one* consumed dirty-id stream per
applied tick, exactly the sharing pattern the M02 workload pioneered.
Every query answers from those maintained structures:

* ``neighbours`` at the UDG radius is the node's row of the tracker's
  directed edge store; at any other radius it is one ball query
  on the live index.
* ``route`` is a BFS over the engine's overlay adjacency, which the engine
  keeps current pair by pair as it re-splices, so no query rebuilds it.
* ``coverage`` is one bulk ball count on the live index, whose cell view is
  current after every tick.
* ``digest`` hashes the canonical state plus the maintained edge sets,
  encoded in one ``json.dumps``.

Two serialisation surfaces make the daemon safe to kill:

* :meth:`LiveWorld.state` — the canonical-JSON-ready description of the
  world (alive ids, exact positions, id high-water mark, config, applied
  seq).  Positions round-trip exactly through JSON (``repr`` shortest
  round-trip floats), so :meth:`from_state` reconstructs a world whose
  every query answers byte-identically.
* :meth:`LiveWorld.digest` — a SHA-256 over the canonical state *plus* the
  maintained edge sets and overlay.  Equal digests mean equal worlds down
  to the last edge; this is the certificate the equivalence property tests,
  the S05 benchmark and the kill/restore smoke all compare.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.tiles_udg import UDGTileSpec
from repro.distributed.repair import DistributedRepairEngine, RepairReport
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.dynamics.topology import EdgeDiff, TopologyTracker
from repro.geometry.primitives import Rect, as_points
from repro.serve.batching import CoalescedBatch
from repro.serve.protocol import encode_json

__all__ = ["WorldConfig", "ApplyResult", "LiveWorld", "world_digest_parts"]

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class WorldConfig:
    """The served deployment's fixed parameters.

    ``radius`` is the UDG connection radius (default: the tile spec's; a
    non-finite one is refused); the window bounds define the overlay tiling.
    The config travels inside snapshots so a restore cannot silently change
    the world's geometry.  The payload keeps a ``"backend": "grid"`` entry
    because recorded snapshots and world digests hash it; a payload naming
    any other index is refused.
    """

    window_xmin: float = 0.0
    window_ymin: float = 0.0
    window_xmax: float = 15.0
    window_ymax: float = 15.0
    radius: Optional[float] = None

    def __post_init__(self) -> None:
        if self.radius is not None and not np.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius!r}")

    @property
    def window(self) -> Rect:
        return Rect(self.window_xmin, self.window_ymin, self.window_xmax, self.window_ymax)

    @property
    def udg_radius(self) -> float:
        return float(self.radius) if self.radius is not None else UDGTileSpec.default().connection_radius

    def to_payload(self) -> Dict[str, Any]:
        return {
            "window": [self.window_xmin, self.window_ymin, self.window_xmax, self.window_ymax],
            "radius": self.radius,
            "backend": "grid",
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "WorldConfig":
        backend = payload.get("backend", "grid")
        if backend != "grid":
            raise ValueError(f"unsupported dynamic index backend {backend!r}; only 'grid' exists")
        xmin, ymin, xmax, ymax = (float(v) for v in payload["window"])
        radius = payload.get("radius")
        return cls(
            window_xmin=xmin,
            window_ymin=ymin,
            window_xmax=xmax,
            window_ymax=ymax,
            radius=float(radius) if radius is not None else None,
        )


@dataclass(frozen=True)
class ApplyResult:
    """What one applied tick did: allocated ids, edge diff, repair report."""

    applied_seq: int
    inserted_ids: Dict[int, int]  # event seq -> allocated node id
    edge_diff: EdgeDiff
    repair: RepairReport
    n_events: int
    n_operations: int


def world_digest_parts(
    index: DynamicSpatialIndex,
    tracker: TopologyTracker,
    engine: DistributedRepairEngine,
) -> Dict[str, Any]:
    """The canonical byte-identity payload shared by every certificate.

    Both sides of the served-vs-batch equivalence test (and the snapshot
    restore check) hash exactly this — alive ids, exact positions, the
    maintained UDG edge set and the spliced overlay — so "byte-identical"
    has one definition in the whole repo.
    """
    ids = index.ids()
    overlay = engine.result()
    return {
        "alive": ids.tolist(),
        "positions": index.id_positions()[ids].tolist(),
        "udg_edges": tracker.edges().tolist(),
        "overlay_edges": overlay.edges.tolist(),
        "good_tiles": [list(tile) for tile in overlay.good_tiles],
        "representatives": {str(tile): rep for tile, rep in overlay.representatives.items()},
    }


class LiveWorld:
    """A live deployment behind one apply/query surface.

    Parameters
    ----------
    positions:
        Initial ``(n, 2)`` deployment; node ids are the row indices.
    config:
        Window and radius (see :class:`WorldConfig`).
    applied_seq:
        The event sequence number already reflected in ``positions`` (used
        by :meth:`from_state`; fresh worlds start at 0).
    """

    def __init__(
        self,
        positions: np.ndarray,
        config: WorldConfig = WorldConfig(),
        applied_seq: int = 0,
    ) -> None:
        pts = as_points(positions)
        self.config = config
        self.spec = UDGTileSpec.default()
        self.applied_seq = int(applied_seq)
        self.index = DynamicSpatialIndex(pts, radius=config.udg_radius)
        self.tracker = TopologyTracker(self.index, config.udg_radius)
        self.engine = DistributedRepairEngine(self.index, self.spec, config.window)

    # -- applying ticks -----------------------------------------------------
    @property
    def n_alive(self) -> int:
        return len(self.index)

    def is_alive(self, node: int) -> bool:
        return self.index.is_alive(node)

    def apply(self, batch: CoalescedBatch) -> ApplyResult:
        """Apply one coalesced tick through the shared dirty-id stream.

        An empty batch (everything coalesced away, or an empty tick) is a
        true no-op: the index, tracker and engine are never touched, no
        dirty set is allocated and no protocol messages are billed.
        """
        # Every drained event — applied or same-tick-rejected — is resolved by
        # this tick, so applied_seq tracks the batcher's seq high-water mark
        # exactly (what snapshot/restore resumes event numbering from).
        resolved = [e.seq for e in batch.accepted] + [e.seq for e, _ in batch.rejected]
        last_seq = max(resolved, default=self.applied_seq)
        if batch.is_empty:
            self.applied_seq = max(self.applied_seq, last_seq)
            return ApplyResult(
                applied_seq=self.applied_seq,
                inserted_ids={},
                edge_diff=EdgeDiff(_EMPTY_IDS, _EMPTY_IDS),
                repair=RepairReport(0, 0, 0, 0, 0),
                n_events=batch.n_events,
                n_operations=0,
            )
        if len(batch.move_ids):
            self.index.move(batch.move_ids, batch.move_positions)
        if len(batch.delete_ids):
            self.index.delete(batch.delete_ids)
        inserted: Dict[int, int] = {}
        if len(batch.insert_positions):
            new_ids = self.index.insert(batch.insert_positions)
            inserted = {
                seq: int(node) for seq, node in zip(batch.insert_seqs, new_ids.tolist())
            }
        # One consumed stream feeds both incremental consumers (M02 pattern).
        dirty, deleted = self.index.consume_dirty()
        diff = self.tracker.update(dirty=dirty, deleted=deleted)
        report = self.engine.update(dirty=dirty, deleted=deleted)
        self.applied_seq = max(self.applied_seq, last_seq)
        return ApplyResult(
            applied_seq=self.applied_seq,
            inserted_ids=inserted,
            edge_diff=diff,
            repair=report,
            n_events=batch.n_events,
            n_operations=batch.n_operations,
        )

    # -- queries (always from the maintained structures) --------------------
    def neighbours(self, node: int, radius: Optional[float] = None) -> List[int]:
        """Ids within ``radius`` (default: the UDG radius) of an alive node.

        At the UDG radius the answer is the node's row of the tracker's
        directed edge store; any other radius (0 keeps its coincident-point
        meaning) is one ball query on the live index; a non-finite radius is
        an error.
        """
        udg_radius = self.config.udg_radius
        r = udg_radius if radius is None else float(radius)
        if not np.isfinite(r):
            raise ValueError("radius must be finite")
        if r != udg_radius or udg_radius <= 0:
            return self.index.neighbours_of(node, r).tolist()
        if not self.index.is_alive(node):
            raise ValueError(f"node id {int(node)} is not alive")
        return self.tracker.neighbours(int(node)).tolist()

    def route(self, source: int, target: int) -> Dict[str, Any]:
        """Shortest-hop route between two nodes over the maintained overlay.

        The endpoints are mapped to their tiles' representatives (the
        paper's §4.2 plug-in-routing observation: good-tile representatives
        are the routable sites, relays realise the hops); the path is a BFS
        over the *spliced* overlay edge set the repair engine maintains —
        no rebuild, no mesh re-derivation.  Fails cleanly when either tile
        is not good or the overlay is partitioned between them.
        """
        for name, node in (("source", source), ("target", target)):
            if not self.index.is_alive(int(node)):
                raise ValueError(f"{name} node {node} is not alive")
        engine = self.engine
        ends = self.index.id_positions()[[int(source), int(target)]]
        src_tile, tgt_tile = map(tuple, engine.tiling.tile_of_points(ends).tolist())
        src_rep, tgt_rep = engine.representative(src_tile), engine.representative(tgt_tile)
        if src_rep is None or tgt_rep is None:
            bad = src_tile if src_rep is None else tgt_tile
            return {"success": False, "reason": f"tile {list(bad)} is not good"}
        adjacency = engine.adjacency
        parents: Dict[int, int] = {src_rep: src_rep}
        frontier = [src_rep]
        while frontier and tgt_rep not in parents:
            next_frontier: List[int] = []
            for node in frontier:
                for nbr in adjacency.get(node, ()):
                    if nbr not in parents:
                        parents[nbr] = node
                        next_frontier.append(nbr)
            frontier = next_frontier
        if tgt_rep not in parents:
            return {"success": False, "reason": "overlay is partitioned between the tiles"}
        path = [tgt_rep]
        while path[-1] != src_rep:
            path.append(parents[path[-1]])
        path.reverse()
        pts = self.index.id_positions()[np.asarray(path, dtype=np.int64)]
        segments = np.diff(pts, axis=0)
        length = float(np.sqrt(np.einsum("ij,ij->i", segments, segments)).sum()) if len(path) > 1 else 0.0
        return {
            "success": True,
            "node_path": [int(n) for n in path],
            "hops": len(path) - 1,
            "euclidean_length": round(length, 9),
        }

    def coverage(self, events: np.ndarray, sensing_radius: float) -> float:
        """Fraction of event positions within ``sensing_radius`` of an alive node.

        One bulk count on the live index, whose cell view is current after
        every tick.  An empty deployment covers nothing, no events are
        trivially covered, and a non-positive or non-finite radius is an
        error.
        """
        if self.n_alive == 0:
            return 0.0
        if sensing_radius <= 0:
            raise ValueError("sensing_radius must be positive")
        if not np.isfinite(sensing_radius):
            raise ValueError("sensing_radius must be finite")
        evts = as_points(events)
        if len(evts) == 0:
            return 1.0
        return float((self.index.count_radius_many(evts, sensing_radius) > 0).mean())

    # -- canonical state / byte-identity ------------------------------------
    def state(self) -> Dict[str, Any]:
        """The canonical snapshot payload (exact-round-trip floats)."""
        ids = self.index.ids()
        return {
            "version": 1,
            "seq": self.applied_seq,
            "n_rows": int(len(self.index.id_positions())),
            "alive": ids.tolist(),
            "positions": self.index.id_positions()[ids].tolist(),
            "config": self.config.to_payload(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "LiveWorld":
        """Reconstruct a world that answers byte-identically to the saved one.

        Dead id rows are re-allocated and deleted again so the id high-water
        mark (hence every future allocation) matches the original daemon's.
        """
        if state.get("version") != 1:
            raise ValueError(f"unknown snapshot version {state.get('version')!r}")
        config = WorldConfig.from_payload(state["config"])
        n_rows = int(state["n_rows"])
        alive = np.asarray(state["alive"], dtype=np.int64)
        positions = np.asarray(state["positions"], dtype=np.float64).reshape(len(alive), 2)
        pts = np.zeros((n_rows, 2), dtype=np.float64)
        if len(alive):
            pts[alive] = positions
        world = cls.__new__(cls)
        world.config = config
        world.spec = UDGTileSpec.default()
        world.applied_seq = int(state["seq"])
        world.index = DynamicSpatialIndex(pts, radius=config.udg_radius)
        dead = np.setdiff1d(np.arange(n_rows, dtype=np.int64), alive, assume_unique=True)
        if len(dead):
            world.index.delete(dead)
        world.index.consume_dirty()
        world.tracker = TopologyTracker(world.index, config.udg_radius)
        world.engine = DistributedRepairEngine(world.index, world.spec, config.window)
        return world

    def digest(self) -> str:
        """SHA-256 over the canonical state + maintained edge sets."""
        payload = {
            "seq": self.applied_seq,
            "config": self.config.to_payload(),
            **world_digest_parts(self.index, self.tracker, self.engine),
        }
        return hashlib.sha256(encode_json(payload).encode("utf-8")).hexdigest()
