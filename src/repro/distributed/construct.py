"""The Figure-7 distributed construction algorithm.

The paper's algorithm has four steps, each realised here with explicit
messages over a :class:`~repro.distributed.network.MessageNetwork`:

1. **Tile identification** — every node derives its tile index from its own
   coordinates and the tile side programmed into it (pure local computation,
   no messages).
2. **Region identification** — every node evaluates the tile-spec region
   predicates on its own (local) coordinates.
3. **Leader election** — the nodes of each non-empty region elect a leader
   (one broadcast round per region,
   :func:`~repro.distributed.leader_election.elect_leader_distributed`); the
   C0 leader becomes the tile representative, other leaders become relays.
4. **Connection** — the representative handshakes with its relays
   (``connect-request`` / ``connect-ack``), decides whether its tile is good
   (all required relays answered and, for NN-SENS, the tile occupancy cap
   holds), announces goodness to its relays, and the outward relays then
   handshake with the facing relays of the neighbouring tile.  Overlay edges
   are created exactly for handshakes in which *both* sides belong to good
   tiles, which reproduces the centralized overlay edge-for-edge (verified by
   :meth:`DistributedBuildResult.matches_overlay` in the integration tests).

One deliberate simplification is documented here rather than hidden: the
NN-SENS occupancy count (``≤ k/2`` points in the tile) is computed from the
tile membership directly instead of via an in-network census protocol.  The
paper itself does not specify a census mechanism; counting messages for it
would be guesswork, and it does not affect which overlay is produced.

The per-tile helpers :func:`region_members_of_tile`,
:func:`elect_tile_leaders` and :func:`tile_goodness` are called only from
:func:`distributed_build`: they are the scalar *oracle* for the vectorised
:func:`~repro.core.goodness.decide_tiles`, which the centralised classifier,
the repair engine and the shard workers share.  Pair splices go through
:func:`~repro.core.overlay.cross_tile_edges`, the one splice rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.goodness import TileClassification
from repro.core.overlay import OverlayGraph, cross_tile_edges
from repro.core.tiles_base import TileSpec
from repro.core.tiling import TileIndex, Tiling
from repro.distributed.leader_election import elect_leader_distributed, election_key
from repro.distributed.messages import Message
from repro.distributed.network import MessageNetwork, NetworkStats
from repro.geometry.primitives import Rect, as_points

__all__ = [
    "DistributedBuildResult",
    "distributed_build",
    "region_members_of_tile",
    "elect_tile_leaders",
    "tile_goodness",
]


def region_members_of_tile(
    points: np.ndarray, member_idx: np.ndarray, center: np.ndarray, spec: TileSpec
) -> Dict[str, List[int]]:
    """Region membership of one tile: name → member node ids (ascending).

    ``points`` is any array indexable by the ids in ``member_idx`` (the global
    coordinate array here, the id-indexed buffer of a dynamic index in the
    repair engine).  Regions may overlap — a node can serve two relay roles.
    """
    local = points[member_idx] - center
    masks = spec.classify_points(local)
    return {
        name: [int(member_idx[i]) for i in np.nonzero(mask)[0]] for name, mask in masks.items()
    }


def elect_tile_leaders(
    points: np.ndarray, region_members: Dict[str, List[int]], center: np.ndarray, spec: TileSpec
) -> Dict[str, int]:
    """Deterministic leader of every non-empty region of one tile.

    The election key is ``(squared distance to the region anchor, node id)``
    (:func:`~repro.distributed.leader_election.election_key`) — the exact rule
    the message-passing election converges to and the one
    :func:`~repro.core.goodness.decide_tiles` applies in bulk.
    """
    leaders: Dict[str, int] = {}
    for name, members in region_members.items():
        if not members:
            continue
        anchor = center + spec.region_anchor(name)
        leaders[name] = min(members, key=lambda m: election_key(points, m, anchor))
    return leaders


def tile_goodness(
    spec: TileSpec, tile_leaders: Dict[str, int], n_members: int, cap: int | None
) -> Tuple[bool, Dict[str, int]]:
    """Goodness decision of one tile: ``(is_good, present relay leaders)``.

    A tile is good when its representative region elected a leader, every
    relay region is occupied and the occupancy cap (NN-SENS) holds.  The
    present-relay mapping is returned even for bad tiles — the handshake
    phase messages them before the decision is known.
    """
    rep_region = spec.representative_region
    if rep_region not in tile_leaders:
        return False, {}
    relay_regions = tuple(name for name in spec.region_names if name != rep_region)
    present = {name: tile_leaders[name] for name in relay_regions if name in tile_leaders}
    over_cap = cap is not None and n_members > cap
    good = len(present) == len(relay_regions) and not over_cap
    return good, present


@dataclass
class DistributedBuildResult:
    """Outcome of the distributed construction.

    Attributes
    ----------
    edges:
        ``(m, 2)`` array of overlay edges as *global point index* pairs.
    representatives:
        Mapping good tile → global index of its elected representative.
    relays:
        Mapping good tile → {region name → global index of the elected relay}.
    good_tiles:
        Tiles whose representatives declared themselves good.
    stats:
        Message/round accounting of the whole run.
    """

    edges: np.ndarray
    representatives: Dict[TileIndex, int]
    relays: Dict[TileIndex, Dict[str, int]]
    good_tiles: List[TileIndex]
    stats: NetworkStats

    def edge_set(self) -> set[Tuple[int, int]]:
        return {(min(int(a), int(b)), max(int(a), int(b))) for a, b in self.edges}

    def matches_overlay(self, overlay: OverlayGraph) -> bool:
        """Whether the produced edges equal the centralized overlay's edges."""
        central = {
            (
                min(int(overlay.original_indices[a]), int(overlay.original_indices[b])),
                max(int(overlay.original_indices[a]), int(overlay.original_indices[b])),
            )
            for a, b in overlay.graph.edges
        }
        return self.edge_set() == central

    def matches_classification(self, classification: TileClassification) -> bool:
        """Whether good tiles and elected points agree with the centralized rule."""
        central_good = set(classification.good_tiles())
        if central_good != set(self.good_tiles):
            return False
        for tile in central_good:
            record = classification.records[tile]
            if self.representatives.get(tile) != record.representative:
                return False
            if {k: v for k, v in self.relays.get(tile, {}).items()} != dict(record.relays):
                return False
        return True


def distributed_build(
    points: np.ndarray,
    spec: TileSpec,
    window: Rect,
    k: int | None = None,
    radio_range: float | None = None,
    index_backend: str = "grid",
) -> DistributedBuildResult:
    """Run the Figure-7 algorithm on a deployment and return the built overlay.

    Parameters
    ----------
    points:
        Deployment coordinates (node ids are row indices).
    spec:
        Tile specification (UDG or NN).
    window:
        Deployment window (defines the tiling, as in the centralized builder).
    k:
        NN parameter for the occupancy cap (ignored by UDG specs).
    radio_range:
        Enforced maximum message distance.  Defaults to the UDG connection
        radius for UDG specs and to unlimited for NN specs (NN links are not
        distance-bounded); pass an explicit value to tighten the locality
        check.
    index_backend:
        Spatial-index backend used by the network to precompute the one-hop
        neighbour table (the distributed-build hot path); see
        :func:`repro.geometry.index.build_index`.
    """
    pts = as_points(points)
    tiling = Tiling(window=window, tile_side=spec.tile_side)
    if radio_range is None:
        radio_range = getattr(spec, "connection_radius", None)
    network = MessageNetwork(pts, radio_range=radio_range, index_backend=index_backend)

    # -- Steps 1 & 2: local tile + region identification --------------------------
    groups = tiling.group_points_by_tile(pts)
    region_members: Dict[TileIndex, Dict[str, List[int]]] = {
        tile: region_members_of_tile(pts, member_idx, tiling.tile_center(tile), spec)
        for tile, member_idx in groups.items()
    }

    # -- Step 3: leader election per non-empty region -------------------------------
    # All regions elect in parallel: every candidate broadcasts its key to the
    # other members of its region in one round, then every candidate locally
    # picks the minimum key it heard (plus its own).  The broadcasts of all
    # regions share the same synchronous round, so the whole step costs one
    # round regardless of the number of tiles — this is what property P4 is
    # about.  (elect_leader_distributed implements the same protocol for a
    # single region and is unit-tested separately.)
    leaders: Dict[TileIndex, Dict[str, int]] = {}
    for tile, regions in region_members.items():
        for name, members in regions.items():
            if len(members) < 2:
                continue
            for m in members:
                network.broadcast(
                    m, members, "candidate", {"tile": tile, "region": name, "node": m}
                )
    network.deliver_round()
    for tile, regions in region_members.items():
        leaders[tile] = elect_tile_leaders(pts, regions, tiling.tile_center(tile), spec)

    # -- Step 4a: representative ↔ relay handshake, goodness decision ----------------
    rep_region = spec.representative_region
    cap = spec.max_points_per_tile(k)

    representatives: Dict[TileIndex, int] = {}
    relays: Dict[TileIndex, Dict[str, int]] = {}
    good_tiles: List[TileIndex] = []
    edges: set[Tuple[int, int]] = set()

    # Every tile runs its intra-tile handshake in parallel (one request round,
    # one ack round), so the whole phase costs two synchronous rounds.
    for tile, tile_leaders in leaders.items():
        if rep_region not in tile_leaders:
            continue
        rep = tile_leaders[rep_region]
        _, present_relays = tile_goodness(spec, tile_leaders, len(groups.get(tile, ())), cap)
        for relay in present_relays.values():
            if relay != rep:
                network.send(Message(rep, relay, "connect-request", {"tile": tile}))
    network.deliver_round()
    for tile, tile_leaders in leaders.items():
        if rep_region not in tile_leaders:
            continue
        rep = tile_leaders[rep_region]
        _, present_relays = tile_goodness(spec, tile_leaders, len(groups.get(tile, ())), cap)
        for relay in present_relays.values():
            if relay != rep:
                network.send(Message(relay, rep, "connect-ack", {"tile": tile}))
    network.deliver_round()

    for tile, tile_leaders in leaders.items():
        is_good, present_relays = tile_goodness(
            spec, tile_leaders, len(groups.get(tile, ())), cap
        )
        if not is_good:
            continue
        rep = tile_leaders[rep_region]
        good_tiles.append(tile)
        representatives[tile] = rep
        relays[tile] = dict(present_relays)
        # Goodness announcement to the relays (1 message each).
        for relay in present_relays.values():
            if relay != rep:
                network.send(Message(rep, relay, "tile-good", {"tile": tile}))
    network.deliver_round()

    # -- Step 4b: cross-tile handshakes between good neighbours ----------------------
    good_set = set(good_tiles)
    for tile in good_tiles:
        neighbours = tiling.neighbours(tile)
        for direction in ("right", "top"):
            neighbour = neighbours.get(direction)
            if neighbour is None or neighbour not in good_set:
                continue
            pair_edges, (a, b) = cross_tile_edges(
                spec,
                direction,
                representatives[tile],
                relays[tile],
                representatives[neighbour],
                relays[neighbour],
            )
            # Border handshake between the two outermost relays (2 messages).
            if a != b:
                network.send(Message(a, b, "border-request", {"tile": tile, "direction": direction}))
                network.send(Message(b, a, "border-ack", {"tile": neighbour}))
            edges.update(pair_edges)
    network.deliver_round()

    edge_array = (
        np.asarray(sorted(edges), dtype=np.int64) if edges else np.zeros((0, 2), dtype=np.int64)
    )
    return DistributedBuildResult(
        edges=edge_array,
        representatives=representatives,
        relays=relays,
        good_tiles=good_tiles,
        stats=network.stats,
    )
