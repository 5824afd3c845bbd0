"""Tile classification: good / bad tiles and point selection.

This module turns a point set plus a tile specification into the data the
overlay builder needs:

* which tiles are **good** (every required region occupied, occupancy cap
  respected — paper §2.1/§2.2),
* which point acts as the tile's **representative**, and
* which point acts as the **relay** for each relay region.

All of it is decided by :func:`decide_tiles`, one vectorised pass that the
centralised classifier, the repair engine and the shard workers share (the
message-passing build in :mod:`repro.distributed.construct` decides tile by
tile and is the oracle it is certified against).  Point selection mirrors the
paper's leader election deterministically: within a region the point with the
smallest *squared* distance to the region's nominal anchor wins, ties broken
by point id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Tuple

import numpy as np

from repro.core.tiles_base import TileSpec
from repro.core.tiling import TileIndex, Tiling
from repro.geometry.primitives import as_points
from repro.kernels.layout import sort_groups

if TYPE_CHECKING:
    from repro.percolation.lattice import LatticeConfiguration

__all__ = [
    "TileRecord",
    "TileClassification",
    "TileDecisions",
    "classify_tiles",
    "decide_tiles",
    "goodness_verdict",
    "failure_reasons",
]

#: Failure codes of :func:`goodness_verdict`; code ``MISSING + j`` means the
#: ``j``-th required region (``spec.required_regions`` order) is empty.
GOOD, OVERCROWDED, MISSING = 0, 1, 2


def goodness_verdict(
    spec: TileSpec, cap: int | None, members: np.ndarray, region_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Goodness of tiles from their member and per-region counts.

    ``members`` is ``(T,)``, ``region_counts`` ``(T, R)`` in
    ``spec.region_names`` order.  Returns ``(good, failure)``: the cap is
    checked first (``OVERCROWDED``), then the first empty required region.
    """
    missing = region_counts[:, spec.region_columns.required] == 0
    failure = np.where(missing.any(axis=1), MISSING + missing.argmax(axis=1), GOOD)
    if cap is not None:
        failure = np.where(members > cap, OVERCROWDED, failure)
    return failure == GOOD, failure


def failure_reasons(spec: TileSpec) -> list[str]:
    """Failure code → reason: ``""``, ``"overcrowded"``, then ``"missing:<region>"``."""
    return ["", "overcrowded", *(f"missing:{name}" for name in spec.required_regions)]


@dataclass(frozen=True)
class TileDecisions:
    """Every per-tile decision for the in-grid tiles of one id subset.

    Row ``t`` is tile ``tiles[t]`` (``(col, row)``, in :meth:`Tiling.tiles`
    order; only tiles with members appear) and region columns follow
    ``spec.region_names``.  ``members`` counts each tile's ids and
    ``member_ids`` lists them tile after tile, ascending within a tile;
    ``region_counts`` counts each region's members, ``leaders`` holds each
    region's elected id (``-1`` when empty) and ``good``/``failure`` the
    :func:`goodness_verdict`.
    """

    tiles: np.ndarray
    members: np.ndarray
    member_ids: np.ndarray
    region_counts: np.ndarray
    leaders: np.ndarray
    good: np.ndarray
    failure: np.ndarray

    def outcomes(
        self, spec: TileSpec
    ) -> Iterator[Tuple[TileIndex, bool, int | None, Dict[str, int]]]:
        """Per tile ``(tile, good, representative, relays)``: what the overlay reads.

        ``representative`` is ``None`` when the representative region is
        empty; ``relays`` maps relay region → leader for good tiles and is
        empty for bad ones.
        """
        names = list(spec.region_names)
        rep_col = spec.region_columns.representative
        for tile, good, row in zip(map(tuple, self.tiles.tolist()), self.good.tolist(), self.leaders.tolist()):
            relays = {name: row[j] for j, name in enumerate(names) if j != rep_col} if good else {}
            yield tile, good, (row[rep_col] if row[rep_col] >= 0 else None), relays


def decide_tiles(
    points: np.ndarray,
    ids: np.ndarray,
    tiling: Tiling,
    spec: TileSpec,
    k: int | None = None,
) -> TileDecisions:
    """Region membership, elections and goodness of every tile ``ids`` reach.

    ``points`` is any coordinate array indexable by ``ids`` (a deployment's
    ``(n, 2)`` array, or the id-indexed buffer of a dynamic index); ids whose
    point lies outside the tiling's grid are ignored.  One vectorised pass:
    ids are grouped by packed tile key
    (:func:`~repro.kernels.layout.sort_groups`), tile-local offsets use the
    same IEEE expressions as :meth:`Tiling.tile_center` (so every region bit
    equals a per-tile classification), one :meth:`TileSpec.classify_points`
    call assigns regions, and one ``np.lexsort`` elects the leader of every
    ``(tile, region)``: least ``d2 = dx*dx + dy*dy`` to
    ``center + spec.region_anchor(name)``, ties to the lower id.  The pass
    costs a fixed number of numpy calls whatever the number of regions.
    """
    ids = np.sort(np.asarray(ids, dtype=np.int64).reshape(-1))
    pts = as_points(points)[ids]
    tiles = tiling.tile_of_points(pts)
    keep = tiling.in_grid_mask(tiles)
    # A stable group-by over ascending ids keeps every tile's members ascending.
    inside = np.flatnonzero(keep)
    order, _, starts, members = sort_groups(tiles[inside] @ (1, tiling.n_cols))
    inside = inside[order]
    ids, pts, tiles = ids[inside], pts[inside], tiles[inside]
    slot = np.repeat(np.arange(starts.size), members)

    centers = tiling.origin + (tiles + 0.5) * tiling.tile_side
    masks = spec.classify_points(pts - centers)

    # Flatten (member, region) incidences into one election over the group
    # key slot * R + region.
    n_tiles, n_regions = starts.size, len(masks)
    region, hit = np.nonzero(np.stack([masks[name] for name in spec.region_names]))
    offset = pts[hit] - (centers[hit] + spec.region_columns.anchors[region])
    offset *= offset
    d2 = offset[:, 0] + offset[:, 1]
    group = slot[hit] * n_regions + region
    cand = ids[hit]
    ranked = np.lexsort((cand, d2, group))
    group, cand = group[ranked], cand[ranked]
    winners = np.ones(group.size, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=winners[1:])
    leaders = np.full(n_tiles * n_regions, -1, dtype=np.int64)
    leaders[group[winners]] = cand[winners]
    region_counts = np.bincount(group, minlength=n_tiles * n_regions).reshape(n_tiles, n_regions)

    good, failure = goodness_verdict(spec, spec.max_points_per_tile(k), members, region_counts)
    return TileDecisions(
        tiles=tiles[starts],
        members=members,
        member_ids=ids,
        region_counts=region_counts,
        leaders=leaders.reshape(n_tiles, n_regions),
        good=good,
        failure=failure,
    )


@dataclass(frozen=True)
class TileRecord:
    """Classification outcome for one tile.

    Attributes
    ----------
    tile:
        Tile index ``(col, row)``.
    point_indices:
        Global indices of the points inside the tile.
    good:
        Whether the tile satisfies the goodness condition.
    failure_reason:
        Empty string for good tiles, otherwise ``"overcrowded"`` or
        ``"missing:<region>"`` (first missing region in spec order).
    representative:
        Global index of the elected representative point (``None`` for bad tiles).
    relays:
        Mapping relay-region name → global index of the elected relay
        (empty for bad tiles).
    """

    tile: TileIndex
    point_indices: np.ndarray
    good: bool
    failure_reason: str
    representative: int | None
    relays: Mapping[str, int]


@dataclass(frozen=True)
class TileClassification:
    """Classification of every tile of a deployment.

    This object is the bridge between the continuum side (points, regions) and
    the discrete side (site percolation): :meth:`to_lattice` yields the
    coupled :class:`~repro.percolation.lattice.LatticeConfiguration` whose open
    sites are exactly the good tiles.  ``good_mask`` is the read-only
    ``(n_rows, n_cols)`` good-tile array (row = y index), built once by
    :func:`classify_tiles`; every aggregate view derives from it.
    """

    tiling: Tiling
    spec: TileSpec
    k: int | None
    records: Dict[TileIndex, TileRecord]
    good_mask: np.ndarray

    # -- aggregate views --------------------------------------------------------
    @property
    def n_good(self) -> int:
        return int(np.count_nonzero(self.good_mask))

    @property
    def fraction_good(self) -> float:
        """Fraction of in-grid tiles that are good — the empirical P(tile good)."""
        total = self.tiling.n_tiles
        return self.n_good / total if total else 0.0

    def good_tiles(self) -> list[TileIndex]:
        """Tile indices of all good tiles (row-major order)."""
        rows, cols = np.nonzero(self.good_mask)
        return list(zip(cols.tolist(), rows.tolist()))

    def record(self, tile: TileIndex) -> TileRecord:
        return self.records[tile]

    def representative_of(self, tile: TileIndex) -> int | None:
        """Global point index of the representative of ``tile`` (None for bad tiles)."""
        return self.records[tile].representative

    def failure_histogram(self) -> Dict[str, int]:
        """Count of bad tiles by failure reason (useful in threshold diagnostics)."""
        hist: Dict[str, int] = {}
        for record in self.records.values():
            if not record.good:
                hist[record.failure_reason] = hist.get(record.failure_reason, 0) + 1
        return hist

    def to_lattice(self, wrap: bool = False) -> LatticeConfiguration:
        """The coupled site-percolation configuration (open site ⇔ good tile).

        Wraps ``good_mask`` itself, without a copy.
        """
        from repro.percolation.lattice import LatticeConfiguration  # not on the serving path

        return LatticeConfiguration(self.good_mask, wrap=wrap)


def classify_tiles(
    points: np.ndarray,
    tiling: Tiling,
    spec: TileSpec,
    k: int | None = None,
) -> TileClassification:
    """Classify every tile of ``tiling`` for the given deployment.

    :func:`decide_tiles` over every point, assembled into one
    :class:`TileRecord` per in-grid tile (empty tiles included).

    Parameters
    ----------
    points:
        ``(n, 2)`` global point coordinates.
    tiling:
        The square tiling of the deployment window; its ``tile_side`` must
        equal ``spec.tile_side`` (a mismatch is almost always a bug, so it is
        rejected).
    spec:
        Tile geometry (:class:`~repro.core.tiles_udg.UDGTileSpec` or
        :class:`~repro.core.tiles_nn.NNTileSpec`).
    k:
        The NN parameter k (required by NN specs for the occupancy cap,
        ignored by UDG specs).
    """
    pts = as_points(points)
    if abs(tiling.tile_side - spec.tile_side) > 1e-9:
        raise ValueError(
            f"tiling tile_side {tiling.tile_side} does not match spec tile_side {spec.tile_side}"
        )
    decisions = decide_tiles(pts, np.arange(len(pts)), tiling, spec, k)
    reasons = failure_reasons(spec)
    decided = {
        tile: TileRecord(tile, member_idx, good, reasons[code], rep if good else None, relays)
        for (tile, good, rep, relays), member_idx, code in zip(
            decisions.outcomes(spec),
            np.split(decisions.member_ids, np.cumsum(decisions.members)[:-1]),
            decisions.failure.tolist(),
        )
    }
    # An empty tile gets the verdict of zero counts.
    _, empty = goodness_verdict(
        spec, spec.max_points_per_tile(k), np.zeros(1), np.zeros((1, len(spec.region_names)))
    )
    no_members = np.zeros(0, dtype=np.int64)
    records = {
        tile: decided.get(tile) or TileRecord(tile, no_members, False, reasons[empty[0]], None, {})
        for tile in tiling.tiles()
    }
    good_mask = np.zeros(tiling.shape, dtype=bool)
    good_tiles = decisions.tiles[decisions.good]
    good_mask[good_tiles[:, 1], good_tiles[:, 0]] = True
    good_mask.flags.writeable = False
    return TileClassification(tiling=tiling, spec=spec, k=k, records=records, good_mask=good_mask)
