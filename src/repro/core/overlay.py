"""Overlay construction: wiring representatives and relays into SENS graphs.

Given a :class:`~repro.core.goodness.TileClassification`, the overlay builder
adds, for every pair of *adjacent good tiles* (t, t'), the relay path the
paper's Claims 2.1 / 2.3 guarantee:

* UDG-SENS: ``rep(t) – E_dir(t) – E_opp(t') – rep(t')`` (3 hops, Figure 4);
* NN-SENS: ``rep(t) – E_dir(t) – C_dir(t) – C_opp(t') – E_opp(t') – rep(t')``
  (5 hops, Figure 6).

Edges are only created between good-tile pairs because that is exactly when
the paper can guarantee the hops exist in the base graph (for NN-SENS even
the within-tile hops rely on the neighbouring tile's occupancy cap, since the
guaranteeing disc lives in the two-tile rectangle).  This mirrors the open
edges of the coupled percolated mesh (Figure 2): the overlay restricted to
representatives is graph-isomorphic to the open subgraph of Z².

The resulting :class:`OverlayGraph` keeps the mapping back to the original
point indices and records each node's roles, which is what the degree bound
(P1), the stretch measurements (P2) and the base-graph edge validation need.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.goodness import TileClassification
from repro.core.tiles_base import TileSpec
from repro.core.tiling import TileIndex
from repro.graphs.base import GeometricGraph
from repro.kernels import ops as kernel_ops

__all__ = ["OverlayRole", "OverlayGraph", "build_overlay", "cross_tile_edges"]


def cross_tile_edges(
    spec: TileSpec,
    direction: str,
    rep_a: int,
    relays_a: Mapping[str, int],
    rep_b: int,
    relays_b: Mapping[str, int],
) -> Tuple[List[Tuple[int, int]], Tuple[int, int]]:
    """Overlay edges of one good tile pair, plus the border-handshake endpoints.

    ``a`` is the tile owning ``direction`` (right/top), ``b`` its neighbour.
    Returns the ``(min, max)`` edge tuples along the relay path
    ``rep_a – chain(a) – chain(b) reversed – rep_b`` (consecutive duplicates
    skipped: one point may hold two consecutive roles) and the two outermost
    relays whose border handshake precedes the splice.
    """
    facing = spec.facing_direction(direction)
    own_chain = [rep_a] + [relays_a[region] for region in spec.relay_chain(direction)]
    other_chain = [relays_b[region] for region in reversed(spec.relay_chain(facing))] + [rep_b]
    path = own_chain + other_chain
    edges = [
        (min(u, v), max(u, v)) for u, v in zip(path[:-1], path[1:]) if u != v
    ]
    return edges, (own_chain[-1], other_chain[0])


class OverlayRole(str, Enum):
    """Role of an overlay node within one tile."""

    REPRESENTATIVE = "representative"
    RELAY = "relay"


@dataclass
class OverlayGraph:
    """The SENS overlay graph together with its provenance.

    Attributes
    ----------
    graph:
        The overlay as a :class:`~repro.graphs.base.GeometricGraph`; node ``i``
        of this graph is the original point ``original_indices[i]``.
    original_indices:
        Global point indices of the overlay nodes.
    roles:
        ``roles[i]`` is the list of ``(tile, region, role)`` assignments of
        overlay node ``i`` (a point can serve several relay functions).
    tile_representatives:
        Mapping good tile → overlay node index of its representative.
    classification:
        The tile classification the overlay was built from.
    """

    graph: GeometricGraph
    original_indices: np.ndarray
    roles: Dict[int, List[Tuple[TileIndex, str, OverlayRole]]]
    tile_representatives: Dict[TileIndex, int]
    classification: TileClassification

    # -- views -------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def node_for_original(self, original_index: int) -> int:
        """Overlay node index of a global point index (KeyError if absent)."""
        matches = np.nonzero(self.original_indices == original_index)[0]
        if matches.size == 0:
            raise KeyError(f"point {original_index} is not part of the overlay")
        return int(matches[0])

    def representative_nodes(self) -> np.ndarray:
        """Overlay node indices acting as a representative of some tile."""
        return np.asarray(sorted(set(self.tile_representatives.values())), dtype=np.int64)

    def relay_nodes(self) -> np.ndarray:
        """Overlay node indices acting purely as relays (never representative)."""
        reps = set(self.tile_representatives.values())
        return np.asarray(
            [i for i in range(self.n_nodes) if i not in reps], dtype=np.int64
        )

    def largest_component(self) -> "OverlayGraph":
        """Restrict the overlay to its largest connected component.

        The paper defines UDG-SENS / NN-SENS as the *largest* connected
        component of the representative/relay graph; smaller components
        correspond to nodes that should switch themselves off (§4.1).
        """
        from repro.graphs.metrics import largest_component_nodes

        keep = largest_component_nodes(self.graph)
        keep_set = set(int(i) for i in keep)
        remap = {int(old): new for new, old in enumerate(sorted(keep_set))}
        sub = self.graph.subgraph(sorted(keep_set), name=self.graph.name)
        new_roles = {
            remap[i]: list(assignments)
            for i, assignments in self.roles.items()
            if i in keep_set
        }
        new_reps = {
            tile: remap[node]
            for tile, node in self.tile_representatives.items()
            if node in keep_set
        }
        return OverlayGraph(
            graph=sub,
            original_indices=self.original_indices[sorted(keep_set)],
            roles=new_roles,
            tile_representatives=new_reps,
            classification=self.classification,
        )

    def verify_edges_in_base(self, base_graph: GeometricGraph) -> np.ndarray:
        """Check every overlay edge exists in the base graph.

        Returns a boolean array over overlay edges; the integration tests
        require it to be all-``True`` (the overlay must be a subgraph of
        UDG(2, λ) / NN(2, k), which is the whole point of the guarantees).
        """
        if self.graph.n_edges == 0:
            return np.zeros(0, dtype=bool)
        base_edges = {
            (int(a), int(b)) for a, b in base_graph.edges
        }
        result = np.zeros(self.graph.n_edges, dtype=bool)
        for i, (a, b) in enumerate(self.graph.edges):
            oa, ob = int(self.original_indices[a]), int(self.original_indices[b])
            key = (min(oa, ob), max(oa, ob))
            result[i] = key in base_edges
        return result


def build_overlay(
    points: np.ndarray, classification: TileClassification, name: str = "SENS"
) -> OverlayGraph:
    """Build the SENS overlay from a tile classification.

    Parameters
    ----------
    points:
        The full ``(n, 2)`` deployment coordinate array the classification was
        computed from (overlay nodes index into it).
    classification:
        The tile classification.
    name:
        Graph label (``"UDG-SENS"`` / ``"NN-SENS"`` from the high-level builders).

    The node set is every elected representative and relay of every good tile;
    edges follow the per-direction relay chains between adjacent good tiles
    (see the module docstring).  Duplicate roles held by a single point are
    collapsed into one node, and degenerate hops (both endpoints the same
    point) are skipped.
    """
    from repro.geometry.primitives import as_points

    tiling = classification.tiling
    spec = classification.spec
    points = as_points(points)

    # Collect overlay members and their roles.
    node_roles: Dict[int, List[Tuple[TileIndex, str, OverlayRole]]] = {}

    def add_role(original: int, tile: TileIndex, region: str, role: OverlayRole) -> None:
        node_roles.setdefault(int(original), []).append((tile, region, role))

    good_tiles = classification.good_tiles()
    for tile in good_tiles:
        record = classification.records[tile]
        add_role(record.representative, tile, spec.representative_region, OverlayRole.REPRESENTATIVE)
        for region, idx in record.relays.items():
            add_role(idx, tile, region, OverlayRole.RELAY)

    original_indices = np.asarray(sorted(node_roles.keys()), dtype=np.int64)
    local_of = {int(orig): i for i, orig in enumerate(original_indices)}

    # Wire the relay chains between adjacent good tiles.  Each unordered pair
    # of neighbouring tiles is processed once (via its "right"/"top" side).
    # Splicing in original-id space and then mapping through the ascending
    # ``original_indices`` keeps every row oriented and the rows sorted.
    good_set = set(good_tiles)
    parts: List[List[Tuple[int, int]]] = []
    for tile in good_tiles:
        record = classification.records[tile]
        neighbours = tiling.neighbours(tile)
        for direction in ("right", "top"):
            neighbour = neighbours.get(direction)
            if neighbour is None or neighbour not in good_set:
                continue
            other = classification.records[neighbour]
            pair_edges, _ = cross_tile_edges(
                spec,
                direction,
                record.representative,
                record.relays,
                other.representative,
                other.relays,
            )
            parts.append(pair_edges)
    edge_array = np.searchsorted(original_indices, kernel_ops.splice_edges(parts))
    graph = GeometricGraph(points[original_indices], edge_array, name=name)

    roles_local = {local_of[orig]: assignments for orig, assignments in node_roles.items()}
    tile_reps = {
        tile: local_of[int(classification.records[tile].representative)] for tile in good_tiles
    }
    return OverlayGraph(
        graph=graph,
        original_indices=original_indices,
        roles=roles_local,
        tile_representatives=tile_reps,
        classification=classification,
    )
