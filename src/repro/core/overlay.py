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
It also stores, read-only, the lookups a route reads: the original → node
inverse and the relay chain of every lattice hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.goodness import TileClassification
from repro.core.tiles_base import DIRECTIONS, TileSpec
from repro.core.tiling import TileIndex
from repro.graphs.base import GeometricGraph
from repro.kernels import ops as kernel_ops

__all__ = ["OverlayRole", "OverlayGraph", "build_overlay", "cross_tile_edges"]


def _relay_path(
    spec: TileSpec,
    direction: str,
    rep_a: int,
    relays_a: Mapping[str, int],
    rep_b: int,
    relays_b: Mapping[str, int],
) -> List[int]:
    """The hop ``rep_a – chain(a) – chain(b) reversed – rep_b`` of one good tile pair.

    ``a`` is the tile owning ``direction``, ``b`` its neighbour; the ids are
    whatever ``rep``/``relays`` hold (global point ids in every caller).  One
    point may hold two consecutive roles, so the path may repeat an id.
    """
    facing = spec.facing_direction(direction)
    return (
        [rep_a]
        + [relays_a[region] for region in spec.relay_chain(direction)]
        + [relays_b[region] for region in reversed(spec.relay_chain(facing))]
        + [rep_b]
    )


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
    Returns the ``(min, max)`` edge tuples along :func:`_relay_path`
    (consecutive duplicates skipped) and the two outermost relays whose
    border handshake precedes the splice.
    """
    path = _relay_path(spec, direction, rep_a, relays_a, rep_b, relays_b)
    edges = [
        (min(u, v), max(u, v)) for u, v in zip(path[:-1], path[1:]) if u != v
    ]
    border = len(spec.relay_chain(direction))
    return edges, (path[border], path[border + 1])


class OverlayRole(str, Enum):
    """Role of an overlay node within one tile."""

    REPRESENTATIVE = "representative"
    RELAY = "relay"


@dataclass(frozen=True)
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
    node_of_original:
        Read-only inverse of ``original_indices`` over every deployment
        point: the overlay node of a global point index, ``-1`` for points
        outside the overlay.
    hop_chains:
        Read-only ``(n_rows, n_cols, 4, L)`` table of the lattice hops: entry
        ``[row, col, d]`` lists the overlay nodes a packet visits from the
        representative of site ``(row, col)`` to the representative of its
        neighbour in direction ``DIRECTIONS[d]``, that representative last
        (``L = 2 · len(relay_chain) + 1``).  ``-1`` where either tile of the
        hop is not good or the neighbour is off the grid.
    """

    graph: GeometricGraph
    original_indices: np.ndarray
    roles: Dict[int, List[Tuple[TileIndex, str, OverlayRole]]]
    tile_representatives: Dict[TileIndex, int]
    classification: TileClassification
    node_of_original: np.ndarray
    hop_chains: np.ndarray

    # -- views -------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def node_for_original(self, original_index: int) -> int:
        """Overlay node index of a global point index (KeyError if absent)."""
        if 0 <= original_index < len(self.node_of_original):
            node = int(self.node_of_original[original_index])
            if node >= 0:
                return node
        raise KeyError(f"point {original_index} is not part of the overlay")

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
        # One spare slot, so remapping an absent (-1) entry yields -1.
        remap = np.full(self.n_nodes + 1, -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        sub = self.graph.subgraph(keep, name=self.graph.name)
        new_roles = {
            int(remap[i]): list(assignments)
            for i, assignments in self.roles.items()
            if remap[i] >= 0
        }
        new_reps = {
            tile: int(remap[node])
            for tile, node in self.tile_representatives.items()
            if remap[node] >= 0
        }
        # A hop's chain is connected, so it lies wholly inside or outside ``keep``.
        return OverlayGraph(
            graph=sub,
            original_indices=self.original_indices[keep],
            roles=new_roles,
            tile_representatives=new_reps,
            classification=self.classification,
            node_of_original=_read_only(remap[self.node_of_original]),
            hop_chains=_read_only(remap[self.hop_chains]),
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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

    # Walk the relay path of every adjacent good pair once, from its
    # right/top side.  Edges are spliced in original-id space and mapped
    # through the ascending ``original_indices``, which keeps every row
    # oriented and the rows sorted; the same paths in node ids fill the hop
    # table, the reverse hop being the path read backwards.
    good_set = set(good_tiles)
    hops: List[Tuple[int, int, int]] = []
    paths: List[List[int]] = []
    for tile in good_tiles:
        record = classification.records[tile]
        neighbours = tiling.neighbours(tile)
        for direction in ("right", "top"):
            neighbour = neighbours.get(direction)
            if neighbour is None or neighbour not in good_set:
                continue
            other = classification.records[neighbour]
            paths.append(
                _relay_path(
                    spec,
                    direction,
                    record.representative,
                    record.relays,
                    other.representative,
                    other.relays,
                )
            )
            hops.append((*tiling.lattice_site(tile), DIRECTIONS.index(direction)))
    chain_len = 2 * len(spec.relay_chain("right")) + 1
    path_ids = np.asarray(paths, dtype=np.int64).reshape(-1, chain_len + 1)
    u, v = path_ids[:, :-1].ravel(), path_ids[:, 1:].ravel()
    step = u != v
    pair_edges = np.column_stack([np.minimum(u, v)[step], np.maximum(u, v)[step]])
    edge_array = np.searchsorted(original_indices, kernel_ops.splice_edges([pair_edges]))
    graph = GeometricGraph(points[original_indices], edge_array, name=name)

    path_nodes = np.searchsorted(original_indices, path_ids)
    hop_chains = np.full((*tiling.shape, len(DIRECTIONS), chain_len), -1, dtype=np.int64)
    row, col, code = np.asarray(hops, dtype=np.int64).reshape(-1, 3).T
    hop_chains[row, col, code] = path_nodes[:, 1:]
    # right (0) / top (2) hops reverse into the neighbour's left (1) / bottom (3).
    hop_chains[row + (code == 2), col + (code == 0), code + 1] = path_nodes[:, -2::-1]
    node_of_original = np.full(len(points), -1, dtype=np.int64)
    node_of_original[original_indices] = np.arange(len(original_indices))

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
        node_of_original=_read_only(node_of_original),
        hop_chains=_read_only(hop_chains),
    )
