"""Routing on the SENS overlay.

The paper's §4.2 observation: the representatives of good tiles behave like
open sites of the percolated mesh, relays realise its edges, so any mesh
routing algorithm can be "plugged in".  :func:`route_on_overlay` does exactly
that — it runs the Figure-9 mesh router on the coupled lattice of a
:class:`~repro.core.result.SensNetwork`, expands the resulting site path into
the concrete representative/relay node path, and accounts for hops, Euclidean
length and transmit power of the overlay route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.result import SensNetwork
from repro.core.tiles_base import DIRECTIONS
from repro.core.tiling import DIRECTION_OFFSETS, TileIndex
from repro.routing.mesh import MeshRouteResult, route_xy_mesh

__all__ = ["OverlayRouteResult", "route_on_overlay", "expand_site_path"]


def _step_codes() -> np.ndarray:
    codes = np.full((3, 3), -1, dtype=np.int64)
    for code, direction in enumerate(DIRECTIONS):
        dc, dr = DIRECTION_OFFSETS[direction]
        codes[dr + 1, dc + 1] = code
    return codes


#: ``_STEP_CODE[d_row + 1, d_col + 1]`` is the ``DIRECTIONS`` index of a unit
#: lattice step (the third axis of ``OverlayGraph.hop_chains``); -1 otherwise.
_STEP_CODE = _step_codes()


@dataclass
class OverlayRouteResult:
    """Outcome of routing one packet across the SENS overlay.

    Attributes
    ----------
    success: whether a route from source to target representative was found.
    mesh_result: the underlying mesh routing outcome (probes, lattice hops).
    node_path: overlay node indices (into ``network.overlay.graph``) visited,
        starting at the source representative.
    hops: number of overlay edges traversed.
    euclidean_length: total Euclidean length of the overlay route.
    power: transmit power of the route at the given path-loss exponent.
    straight_line: Euclidean distance between source and target representatives.
    """

    success: bool
    mesh_result: MeshRouteResult
    node_path: List[int]
    hops: int
    euclidean_length: float
    power: float
    straight_line: float

    @property
    def stretch(self) -> float:
        """Route length divided by the straight-line distance."""
        if not self.success or self.straight_line == 0:
            return float("inf")
        return self.euclidean_length / self.straight_line


def expand_site_path(network: SensNetwork, site_path: List[Tuple[int, int]]) -> List[int]:
    """Expand a lattice-site path into the overlay node path that realises it.

    Consecutive sites are adjacent good tiles; each lattice hop becomes its
    ``rep – relays… – rep`` chain, read from ``network.overlay.hop_chains``.
    A node that repeats the previous one (a point holding two consecutive
    roles) is dropped.  ``ValueError`` when a step leaves the grid, does not
    join lattice neighbours or touches a bad tile.
    """
    if not site_path:
        return []
    overlay = network.overlay
    start = overlay.tile_representatives[network.tiling.tile_of_site(site_path[0])]
    sites = np.asarray(site_path, dtype=np.int64).reshape(-1, 2)
    steps = np.diff(sites, axis=0)
    if (
        (sites < 0).any()
        or (sites >= overlay.hop_chains.shape[:2]).any()
        or (np.abs(steps).sum(axis=1) != 1).any()
    ):
        raise ValueError("site path must step between neighbouring lattice sites")
    chains = overlay.hop_chains[
        sites[:-1, 0], sites[:-1, 1], _STEP_CODE[steps[:, 0] + 1, steps[:, 1] + 1]
    ]
    if (chains < 0).any():
        raise ValueError("site path must step between adjacent good tiles")
    nodes = np.concatenate([[start], chains.ravel()])
    keep = np.ones(nodes.size, dtype=bool)
    np.not_equal(nodes[1:], nodes[:-1], out=keep[1:])
    return nodes[keep].tolist()


def route_on_overlay(
    network: SensNetwork,
    source_tile: TileIndex,
    target_tile: TileIndex,
    beta: float = 2.0,
    max_hops: int | None = None,
) -> OverlayRouteResult:
    """Route between the representatives of two good tiles over the SENS overlay.

    Parameters
    ----------
    network:
        A built SENS network.
    source_tile, target_tile:
        Good tiles whose representatives are the packet's endpoints.
    beta:
        Path-loss exponent for the power accounting.
    max_hops:
        Passed through to the mesh router.

    Raises
    ------
    ValueError
        If either tile is not good.
    """
    classification = network.classification
    for name, tile in (("source", source_tile), ("target", target_tile)):
        if tile not in classification.records or not classification.records[tile].good:
            raise ValueError(f"{name} tile {tile} is not a good tile")

    lattice = network.lattice()
    mesh_result = route_xy_mesh(
        lattice,
        network.tiling.lattice_site(source_tile),
        network.tiling.lattice_site(target_tile),
        max_hops=max_hops,
    )
    overlay = network.overlay
    positions = overlay.graph.points
    src_rep = overlay.tile_representatives[source_tile]
    tgt_rep = overlay.tile_representatives[target_tile]
    straight = float(np.linalg.norm(positions[src_rep] - positions[tgt_rep]))

    if not mesh_result.success:
        return OverlayRouteResult(
            False, mesh_result, [src_rep], 0, 0.0, 0.0, straight
        )

    node_path = expand_site_path(network, mesh_result.path)
    pts = positions[np.asarray(node_path, dtype=np.int64)]
    seg = np.sqrt(np.einsum("ij,ij->i", np.diff(pts, axis=0), np.diff(pts, axis=0)))
    return OverlayRouteResult(
        success=True,
        mesh_result=mesh_result,
        node_path=node_path,
        hops=len(node_path) - 1,
        euclidean_length=float(seg.sum()),
        power=float(np.sum(seg**beta)),
        straight_line=straight,
    )
