"""Pluggable spatial-index backends with vectorised bulk queries.

Every layer of the library ultimately reduces to fixed-radius neighbour
queries over planar point sets: the UDG builder enumerates all pairs within
the connection radius, the distributed simulator checks one-hop locality, the
sensing model asks which sensors cover an event, and continuum percolation
derives adjacency from the same closed ball.  This module gives those
consumers one interface — :class:`SpatialIndex` — with two interchangeable
backends:

* :class:`GridIndex` — a uniform spatial hash.  The cell table is built with
  one ``np.unique`` over packed integer cell keys (CSR-style: points sorted
  by cell plus start/count arrays), and :meth:`GridIndex.query_radius_many`
  answers *all* queries with one candidate gather and one exact-distance
  mask instead of a Python loop per query.
* :class:`KDTreeIndex` — a thin wrapper over :class:`scipy.spatial.cKDTree`.

Both backends implement the exact closed ball through one shared predicate,
:func:`within_ball` (true Euclidean distance via ``np.hypot``, no tolerance;
at ``radius == 0`` only exactly coincident points qualify) and return
identical, deterministically ordered results, so consumers can switch
backends without changing which graph they build.  :func:`build_index` is the
factory the consumers go through.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.geometry.primitives import as_points
from repro.kernels import ops as kernel_ops
from repro.kernels.layout import CellTable, pack_bounds, pack_keys, spans_fit_packed

__all__ = [
    "SpatialIndex",
    "GridIndex",
    "KDTreeIndex",
    "build_index",
    "within_ball",
    "BACKENDS",
    "DEFAULT_BULK_CHUNK_SIZE",
]

#: Centers per block of one bulk candidate gather.  The peak transient of
#: :meth:`GridIndex._matches` is proportional to ``centers × (1 + mean
#: occupancy) × scanned cells``, so a 10⁶-center query against a dense table could
#: materialise a multi-gigabyte candidate pool at once; processing centers in
#: blocks bounds that peak.  Results are per-center, so any chunking of the
#: centers axis is byte-identical to the one-shot gather.
DEFAULT_BULK_CHUNK_SIZE = 131072


def within_ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Exact closed-ball membership mask shared by every backend.

    Compares the true Euclidean distance (``np.hypot``) against ``radius``
    instead of squaring: the naive ``d² <= r²`` underflows for subnormal
    offsets (``(2e-313)²`` rounds to ``0.0``), so at tiny radii it admits
    points strictly outside the ball — and which *candidates* each backend
    generates for such points differs, so the backends disagreed.  ``hypot``
    never under- or overflows and satisfies ``hypot(dx, dy) >= max(|dx|,
    |dy|)``, which also guarantees every admitted point lies within the grid
    scan reach of ``ceil(radius / cell_size)`` cells.

    ``center`` broadcasts against ``points``, so it may be a single ``(2,)``
    center or one ``(n, 2)`` center per point.

    The predicate itself lives in the kernel layer
    (:func:`repro.kernels.ops.within_ball_mask`), certified there against
    its scalar loop; this name remains the stable public entry point.
    """
    return kernel_ops.within_ball_mask(points, center, radius)


#: Below this radius ``r²`` is subnormal, where the relative ULP spacing of
#: ``cKDTree``'s squared-distance arithmetic (up to ~1e-3) dwarfs any relative
#: slack, so candidate generation needs an absolute floor instead.
_TINY_RADIUS = 1e-154


def _candidate_radius(radius: float) -> float:
    """Inflated radius for cKDTree candidate generation.

    ``cKDTree`` prunes with its own squared-distance arithmetic, which can
    disagree with :func:`within_ball` by an ULP on exact-boundary pairs; a
    few ULPs of slack make its candidate set a strict superset of the closed
    ball, and the exact post-filter removes the extras.  When ``r²`` is
    subnormal a *relative* slack is swallowed by the subnormal ULP spacing
    and the tree could still prune true neighbours, so those radii get an
    absolute floor — a ball of radius 2e-154 only ever holds (near-)
    coincident points, so the post-filter stays cheap.
    """
    if radius < _TINY_RADIUS:
        return 2.0 * _TINY_RADIUS
    return radius * (1.0 + 1e-12)


#: Radii in ``[_SQUARE_SAFE_MIN_RADIUS, 1 / _SQUARE_SAFE_MIN_RADIUS]`` keep
#: ``r²`` a normal float far from under- and overflow, so a squared distance
#: carries its usual ~2⁻⁵² relative rounding error and can bracket the exact
#: predicate: ``KDTreeIndex.count_radius_many``'s two-radius counts and the
#: pair prefilter of :func:`_pairs_within_ball` rely on it.  Radii outside
#: the range take the exact :func:`within_ball` path for every candidate.
_SQUARE_SAFE_MIN_RADIUS = 1e-150


def _squares_bracket(radius: float) -> bool:
    """Whether squared distances can decide closed-ball membership at ``radius``."""
    return _SQUARE_SAFE_MIN_RADIUS <= radius <= 1.0 / _SQUARE_SAFE_MIN_RADIUS


def _pairs_within_ball(
    x: np.ndarray,
    y: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    radius: float,
    centers: Tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """:func:`within_ball` mask of point ``i[k]`` about center ``j[k]``, deciding each pair once.

    ``x`` and ``y`` are the points' coordinate columns, ``centers`` the
    centers' ``(x, y)`` columns (default: the points themselves, a
    self-join).  The differences ``dx = x[i] - cx[j]`` and ``dy`` are the
    very floats :func:`within_ball` would take the ``hypot`` of.  Their
    rounded squared sum ``d2`` is within a few ULPs of the true ``dx² +
    dy²``, and ``hypot`` within one ULP of its root, so at a bracketing
    radius (:func:`_squares_bracket`) ``d2 <= r²·(1 − 1e-12)`` certifies that
    ``hypot(dx, dy) <= r`` and ``d2 > r²·(1 + 1e-12)`` that it is not (a
    ``d2`` that overflows is ``inf``, far outside).  Only the pairs in the
    band in between — and every pair at other radii — go to
    :func:`within_ball`, so the mask is the one :func:`within_ball` alone
    gives.
    """
    cx, cy = (x, y) if centers is None else centers
    dx = x.take(i)
    dx -= cx.take(j)
    dy = y.take(i)
    dy -= cy.take(j)
    if not _squares_bracket(radius):
        return within_ball(np.stack((dx, dy), axis=-1), 0.0, radius)
    with np.errstate(over="ignore"):
        d2 = dx * dx
        d2 += dy * dy
    r2 = radius * radius
    inside = d2 <= r2 * (1.0 - 1e-12)
    band = np.nonzero(~inside & (d2 <= r2 * (1.0 + 1e-12)))[0]
    if band.size:
        band_diff = np.stack((dx[band], dy[band]), axis=-1)
        inside[band] = within_ball(band_diff, 0.0, radius)
    return inside


def _canonical_pairs(owners: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Canonical ``(m, 2)`` pairs (``i < j``, lexicographic) of a self-join's matches.

    ``owners``/``members`` are the flat, unordered matches of a self-join,
    which holds every unordered pair at least once, in either orientation;
    self-matches are dropped and one sort orders and deduplicates the rest.
    """
    keep = np.flatnonzero(members != owners)
    owners, members = owners.take(keep), members.take(keep)
    rows = np.stack((np.minimum(owners, members), np.maximum(owners, members)), axis=-1)
    return kernel_ops.splice_edges([rows])


@lru_cache(maxsize=64)
def _cell_reach(cell_size: float, radius: float) -> int:
    """:meth:`GridIndex._reach`: the least ``reach`` with ``reach·cell_size >= radius``, exactly."""
    reach = int(np.ceil(radius / cell_size))
    if reach * Fraction(cell_size) < Fraction(radius):
        reach += 1
    return reach


def _stencil_axis(
    keys: np.ndarray, reach: int, span: int, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis of each center's scan: ``(cells, ok, offsets)``, each ``(q, S)`` or broadcastable.

    A center at cell ``key`` scans offsets ``-reach-1 .. reach+1``, the outer
    ring only where its ``lo`` / ``hi`` slack flag is set, and only cells
    inside ``[0, span)`` count.  A stencil wider than the occupied span
    scans the span itself instead, so a radius far larger than the cell
    size costs at most the span per center, not ``2·reach + 3``.
    """
    if 2 * reach + 3 <= span:
        offsets = np.arange(-reach - 1, reach + 2, dtype=np.int64)[None, :]
        cells = keys[:, None] + offsets
        ok = (cells >= 0) & (cells < span)
        ok[:, 0] &= lo
        ok[:, -1] &= hi
        return cells, ok, offsets
    cells = np.arange(span, dtype=np.int64)[None, :]
    offsets = cells - keys[:, None]
    outer = min(reach + 1, 2**62)
    ok = (np.abs(offsets) <= outer) & ((offsets != -outer) | lo[:, None]) & ((offsets != outer) | hi[:, None])
    return np.broadcast_to(cells, offsets.shape), ok, offsets


def _flatten_lists(lists: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(owners, members)`` view of a non-empty run of per-query hit arrays."""
    counts = np.fromiter((len(a) for a in lists), dtype=np.int64, count=len(lists))
    return np.repeat(np.arange(len(lists), dtype=np.int64), counts), np.concatenate(lists)


@runtime_checkable
class SpatialIndex(Protocol):
    """Common query surface of the spatial-index backends.

    All radius queries are exact closed balls: a point at distance exactly
    ``radius`` *is* a neighbour, a point at ``radius + ulp`` is not, and at
    ``radius == 0`` only exactly coincident points qualify.  Results are
    sorted ascending (scalar queries / per-query lists) or in canonical
    ``(i, j)``-lexicographic order with ``i < j`` (:meth:`query_pairs`), so
    two backends built over the same points return *identical* arrays.
    """

    points: np.ndarray

    def __len__(self) -> int: ...

    def query_radius(self, center: Iterable[float], radius: float) -> np.ndarray:
        """Indices of points within ``radius`` of one ``center``, ascending."""
        ...

    def query_radius_many(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        """Per-center neighbour index arrays for a whole batch of centers."""
        ...

    def count_radius_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per-center neighbour *counts* (cheaper than materialising indices)."""
        ...

    def query_pairs(self, radius: float) -> np.ndarray:
        """All index pairs ``(i, j)``, ``i < j``, within ``radius`` of each other."""
        ...

    def neighbour_lists(self, radius: float, include_self: bool = False) -> List[np.ndarray]:
        """Neighbour array per stored point (self excluded unless requested)."""
        ...

    def query_nearest(self, centers: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` nearest stored points per center, nearest first."""
        ...


def _strip_self(lists: List[np.ndarray], include_self: bool) -> List[np.ndarray]:
    if include_self:
        return lists
    return [arr[arr != i] for i, arr in enumerate(lists)]


def _check_radius(radius: float) -> None:
    if radius < 0:
        raise ValueError("radius must be non-negative")


def _check_chunk_size(chunk_size: int | None) -> int | None:
    """Validate a bulk-chunk size (``None`` = unchunked single gather)."""
    if chunk_size is None:
        return None
    if int(chunk_size) < 1:
        raise ValueError("chunk_size must be >= 1 (or None for one gather)")
    return int(chunk_size)


class _IndexBase:
    """Backend behaviour derivable from the primitive queries.

    Kept in one place so the derived semantics (self-exclusion, ordering)
    cannot drift between backends — the exact agreement of which is this
    layer's contract.
    """

    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def neighbours_of(self, index: int, radius: float, include_self: bool = False) -> np.ndarray:
        """Indices of points within ``radius`` of the stored point ``index``."""
        result = self.query_radius(self.points[index], radius)
        if include_self:
            return result
        return result[result != index]

    def neighbour_lists(self, radius: float, include_self: bool = False) -> List[np.ndarray]:
        """Neighbour array per stored point via one bulk query."""
        return _strip_self(self.query_radius_many(self.points, radius), include_self)


class GridIndex(_IndexBase):
    """Uniform spatial hash over square cells of a given size.

    Parameters
    ----------
    points:
        ``(n, 2)`` point coordinates.
    cell_size:
        Side of the (axis-aligned) hash cells.  For radius-``r`` neighbour
        queries a cell size of ``r`` means only the 3×3 block of cells around
        a query needs scanning.
    chunk_size:
        Bulk queries process at most this many centers per candidate gather
        (:data:`DEFAULT_BULK_CHUNK_SIZE`), bounding peak memory on 10⁶-center
        workloads; ``None`` restores the single one-shot gather.  Chunking
        never changes a result — each center's answer is independent.

    The constructor is fully vectorised: integer cell keys are packed into one
    ``int64`` per point, a stable argsort groups points by cell, and a single
    ``np.unique`` yields the CSR-style ``(cell id, start, count)`` table.  No
    per-point Python loop runs at build or bulk-query time (the exact-key
    repair of :meth:`_exact_keys` touches only coordinates whose quotient
    lands exactly on an integer).
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_size: float,
        chunk_size: int | None = DEFAULT_BULK_CHUNK_SIZE,
    ) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = as_points(points)
        self.cell_size = float(cell_size)
        self.bulk_chunk_size = _check_chunk_size(chunk_size)
        n = len(self.points)
        if n:
            quot = self.points / self.cell_size
            keys_f = np.floor(quot)
            # Guard in float BEFORE the int64 cast: a key magnitude past
            # int64 range would cast to garbage, wrap the span negative, and
            # sail past the product check below into silently empty queries.
            if not np.isfinite(keys_f).all() or np.abs(keys_f).max() >= 2**62:
                raise ValueError(
                    "point spread spans too many grid cells for this cell_size; "
                    "use a larger cell_size or the 'kdtree' backend"
                )
            keys = self._exact_keys(self.points, quot=quot)
            key_min, spans = pack_bounds(keys)
            if not spans_fit_packed(spans):
                raise ValueError(
                    "point spread spans too many grid cells for this cell_size; "
                    "use a larger cell_size or the 'kdtree' backend"
                )
            # Stable sort inside CellTable keeps original index order per cell.
            self._table = CellTable.group_points(
                pack_keys(keys, key_min, spans), key_min, spans
            )
        else:
            self._table = CellTable.empty()

    @classmethod
    def from_cell_table(
        cls,
        points: np.ndarray,
        cell_size: float,
        cell_keys: np.ndarray,
        cell_members: Sequence[np.ndarray],
        chunk_size: int | None = DEFAULT_BULK_CHUNK_SIZE,
        slack: int = 0,
    ) -> "GridIndex":
        """Adopt an externally maintained cell table instead of deriving one.

        The dynamic layer (:class:`repro.dynamics.incremental.DynamicSpatialIndex`)
        keeps cell membership current by *patching* — a hash map of sorted
        member-id arrays touched only where nodes cross cell boundaries.  This
        constructor wraps such a table in a :class:`GridIndex` without
        re-bucketing anything, so the vectorised bulk machinery
        (:meth:`_matches` and everything built on it) runs over a patched
        table exactly as it would over a from-scratch build.

        The returned view answers *centers-in, candidates-out* queries only
        (``query_radius``, ``query_radius_many``, ``count_radius_many`` and
        the ``_matches`` engine underneath them).  Whole-index derived
        queries — ``query_pairs``, ``neighbour_lists``, ``query_nearest``,
        ``len`` — are undefined on an adopted view: they would iterate the
        raw ``points`` buffer, whose dead/spare rows are not part of the
        indexed set.  The dynamic layer exposes its own id-space versions of
        those surfaces instead.

        Parameters
        ----------
        points:
            Coordinate array indexable by the ids stored in ``cell_members``.
            It is adopted *by reference* (no copy, no validation) and may hold
            extra rows — ids never referenced by a cell are never candidates.
        cell_size:
            The cell side the keys were derived with (must match the exact
            :meth:`_exact_keys` convention, as the dynamic layer guarantees).
        cell_keys:
            ``(m, 2)`` integer keys of the occupied cells, duplicate-free.
        cell_members:
            One sorted id array per row of ``cell_keys``.
        slack:
            Spare slots after each cell's members, so that the owner can
            patch cells in place (:meth:`~repro.kernels.layout.CellTable.patch`).

        Raises
        ------
        ValueError
            When the occupied-cell bounding box overflows the packed-key
            representation (callers fall back to scalar queries).
        """
        index = cls.__new__(cls)
        index.points = points
        index.cell_size = float(cell_size)
        index.bulk_chunk_size = _check_chunk_size(chunk_size)
        keys = np.asarray(cell_keys, dtype=np.int64).reshape(-1, 2)
        if len(keys) == 0:
            index._table = CellTable.empty()
            return index
        key_min, spans = pack_bounds(keys)
        if not spans_fit_packed(spans):
            raise ValueError(
                "occupied cells span too large a bounding box for the packed "
                "cell table; fall back to scalar queries"
            )
        index._table = CellTable.adopt_cells(
            pack_keys(keys, key_min, spans), cell_members, key_min, spans, slack
        )
        return index

    # -- cell-table views ---------------------------------------------------------
    # The CSR arrays live in one kernel-layer CellTable (the SoA description
    # shared with the dynamic layer's adopted views and the shard workers);
    # these views keep the historical private names readable in the query
    # code below.
    @property
    def _key_min(self) -> np.ndarray:
        return self._table.key_min

    @property
    def _spans(self) -> np.ndarray:
        return self._table.spans

    @property
    def _order(self) -> np.ndarray:
        return self._table.order

    @property
    def _cell_ids(self) -> np.ndarray:
        return self._table.cell_ids

    @property
    def _starts(self) -> np.ndarray:
        return self._table.starts

    @property
    def _counts(self) -> np.ndarray:
        return self._table.counts

    # -- cell accessors -----------------------------------------------------------
    #: On x86 ``np.longdouble`` carries a 64-bit mantissa, so a key below 2¹¹
    #: times a 53-bit cell size multiplies exactly and decides boundary cases
    #: without exact-rational arithmetic.
    _LONGDOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63

    def _exact_keys(self, coords: np.ndarray, quot: np.ndarray | None = None) -> np.ndarray:
        """``floor(x / cell_size)`` with the division's up-rounding repaired.

        ``quot`` may pass in an already-computed ``coords / cell_size`` to
        spare the build path a second full-array division.

        ``fl(x / cell_size)`` can round up onto an exact integer when the true
        quotient lies within half an ULP below it, mis-bucketing ``x`` one
        cell high (down-shifts cannot happen: a correctly rounded quotient of
        a value at or past an integer never lands below it).  Only entries
        whose computed quotient is exactly an integer can hide a shift.  For
        those, comparing against the rounded product ``fl(key·cell_size)``
        decides every non-equal case outright (the product is within half an
        ULP, and an exactly representable ``key·cell_size`` rounds to
        itself); float equality — exact-lattice coordinates — is resolved by
        an exact ``longdouble`` product, leaving exact-rational arithmetic
        for the vanishing remainder.  Lattice data therefore stays
        vectorised instead of paying a per-point Python loop.
        """
        if quot is None:
            quot = coords / self.cell_size
        keys_f = np.floor(quot)
        # Query centers may sit arbitrarily far off-grid (or be non-finite);
        # saturate their keys instead of casting int64 garbage with a
        # RuntimeWarning.  The span bound checks discard them either way, and
        # this bound keeps key differences inside int64 (stored points are
        # range-checked at build time and pass through unchanged).
        limit = 2.0**62 - 2.0**10
        keys_f = np.where(np.isfinite(keys_f), np.clip(keys_f, -limit, limit), 0.0)
        keys = keys_f.astype(np.int64)
        suspect = quot == keys_f
        if suspect.any():
            prod = keys_f * self.cell_size
            shifted = suspect & (coords < prod)
            ambiguous = suspect & (coords == prod)
            if ambiguous.any() and self._LONGDOUBLE_EXACT:
                exact = ambiguous & (np.abs(keys_f) < 2.0**11)
                prod_l = keys_f.astype(np.longdouble) * np.longdouble(self.cell_size)
                shifted |= exact & (coords.astype(np.longdouble) < prod_l)
                ambiguous &= ~exact
            if ambiguous.any():
                cell = Fraction(self.cell_size)
                for pos in zip(*np.nonzero(ambiguous)):
                    if Fraction(float(coords[pos])) < int(keys[pos]) * cell:
                        shifted[pos] = True
            keys[shifted] -= 1
        return keys

    def cell_of(self, point: Iterable[float]) -> Tuple[int, int]:
        """Integer cell coordinates containing ``point``."""
        x, y = point
        key = self._exact_keys(np.array([[float(x), float(y)]], dtype=np.float64))[0]
        return (int(key[0]), int(key[1]))

    def _cell_slice(self, cx: int, cy: int) -> np.ndarray:
        """Stored-point indices in cell ``(cx, cy)`` (ascending; empty if none)."""
        rx = cx - int(self._key_min[0])
        ry = cy - int(self._key_min[1])
        if not (0 <= rx < int(self._spans[0]) and 0 <= ry < int(self._spans[1])):
            return np.zeros(0, dtype=np.int64)
        packed = rx * int(self._spans[1]) + ry
        pos = int(np.searchsorted(self._cell_ids, packed))
        if pos == len(self._cell_ids) or self._cell_ids[pos] != packed:
            return np.zeros(0, dtype=np.int64)
        start = self._starts[pos]
        return self._order[start : start + self._counts[pos]]

    def points_in_cell(self, cell: Tuple[int, int]) -> np.ndarray:
        """Indices of points bucketed into ``cell``, ascending."""
        cx, cy = cell
        return self._cell_slice(int(cx), int(cy)).copy()

    def _reach(self, radius: float) -> int:
        """Cell offsets to scan so every point of the closed ball is covered.

        ``ceil(radius / cell_size)`` alone can undercount by one ring: a true
        quotient just above an integer ``k`` may *compute* as exactly ``k``
        (e.g. radius 1.9033145596437013 over cell size 0.6344381865479004
        divides to exactly 3.0), silently dropping neighbours in ring ``k+1``.
        The covering check ``reach·cell_size >= radius`` is therefore done in
        exact rational arithmetic — a float product has its own half-ULP
        window that can hide the shortfall.  The common exact-quotient case
        (``cell_size == radius``) keeps its 3×3 scan.  The answer is
        remembered per ``(cell_size, radius)``: a served daemon asks the same
        pair on every tick.
        """
        return _cell_reach(float(self.cell_size), float(radius))

    def _boundary_slack(
        self, coords: np.ndarray, keys: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-axis ``(lo, hi)`` flags: queries within ULPs of a cell boundary.

        With exact cell keys, the only points that can pass the computed-
        difference closed-ball predicate from one ring beyond ``_reach`` are
        those whose *query* coordinate lies within about half an ULP of
        ``radius`` of a cell boundary (the difference ``px - cx`` rounds down
        to ``radius`` while the true distance extends just past ``reach``
        cells).  These flags tell the scan loops which queries need the extra
        ring on which side of which axis; generic coordinates never trigger
        them, so the common 3×3 scan is untouched.
        """
        cell = self.cell_size
        # np.spacing(x) is nextafter(x, inf) - x, the ULP above x >= 0.
        guard = 2.0 * (np.spacing(radius) + np.spacing(np.abs(coords)))
        lo = coords - keys * cell <= guard
        hi = (keys + 1.0) * cell - coords <= guard
        return lo, hi

    def occupied_cells(self) -> List[Tuple[int, int]]:
        """All cells that contain at least one point."""
        span_y = int(self._spans[1])
        cx = self._cell_ids // span_y + self._key_min[0]
        cy = self._cell_ids % span_y + self._key_min[1]
        return list(zip(cx.tolist(), cy.tolist()))

    # -- scalar queries -----------------------------------------------------------
    def query_radius(self, center: Iterable[float], radius: float) -> np.ndarray:
        """Indices of points within ``radius`` of ``center`` (exact closed ball).

        The one-center case of :meth:`query_radius_many`: the same stencil
        gather and the same :func:`within_ball` decision (exact true-distance
        closed ball, no tolerance) that :class:`KDTreeIndex` applies, so the
        distributed simulator and the centralized builder agree on every
        boundary pair.  At ``radius == 0`` only exactly coincident points
        qualify.
        """
        _check_radius(radius)
        cx, cy = center
        return self.query_radius_many(np.array([[float(cx), float(cy)]]), radius)[0]

    # -- bulk queries -------------------------------------------------------------
    def _matches(
        self, centers: np.ndarray, radius: float, self_join: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All (query, point) index pairs within ``radius``: flat ``(owners, members)``, unordered.

        The shared engine of the bulk queries.  Centers are taken in blocks
        of ``bulk_chunk_size`` (each center's matches are independent, so
        the blocking never changes a result); every block makes one
        :func:`~repro.kernels.ops.cell_gather` call over its centers'
        whole stencils.

        ``self_join`` declares that the centers are exactly the indexed
        points.  Closed-ball membership is symmetric, and each endpoint's
        stencil holds the other's cell, so the offsets ``(dx, dy) >= (0, 0)``
        (lexicographically) find every unordered pair: pairs in different
        cells once, pairs in one cell (and each point with itself) in both
        orientations.
        """
        chunk = self.bulk_chunk_size
        if chunk is None or len(centers) <= chunk:
            return self._gather(centers, radius, self_join)
        owner_parts: List[np.ndarray] = []
        member_parts: List[np.ndarray] = []
        for start in range(0, len(centers), chunk):
            owners, members = self._gather(centers[start : start + chunk], radius, self_join)
            owner_parts.append(owners + start)
            member_parts.append(members)
        return np.concatenate(owner_parts), np.concatenate(member_parts)

    def _gather(
        self, centers: np.ndarray, radius: float, self_join: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One block of :meth:`_matches`: one candidate gather, one exact decision.

        Each center's key is broadcast against all ``(2·reach + 3)²`` cell
        offsets (or the whole occupied span, where that is narrower: see
        :func:`_stencil_axis`); the cells outside the span, and the outer ring of
        offsets on every side where :meth:`_boundary_slack` leaves a
        center's flag off, are masked away, and the remaining packed cell
        ids go to one :func:`~repro.kernels.ops.cell_gather`.  The
        candidates are decided by :func:`_pairs_within_ball`, which sends
        only the ULP band around ``r²`` to :func:`within_ball`.
        """
        if len(centers) == 0 or self._table.n_cells == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        reach = self._reach(radius)
        keys = self._exact_keys(centers)
        lo, hi = self._boundary_slack(centers, keys, radius)
        keys -= self._key_min
        rows, row_ok, dx = _stencil_axis(keys[:, 0], reach, int(self._spans[0]), lo[:, 0], hi[:, 0])
        cols, col_ok, dy = _stencil_axis(keys[:, 1], reach, int(self._spans[1]), lo[:, 1], hi[:, 1])
        wanted = row_ok[:, :, None] & col_ok[:, None, :]
        if self_join:
            wanted &= (dx[:, :, None] > 0) | ((dx[:, :, None] == 0) & (dy[:, None, :] >= 0))
        wanted = wanted.reshape(len(centers), -1)
        packed = (rows * self._spans[1])[:, :, None] + cols[:, None, :]
        owners = np.nonzero(wanted)[0]
        owners, members = kernel_ops.cell_gather(
            self._table, packed.reshape(len(centers), -1)[wanted], owners
        )
        keep = np.flatnonzero(
            _pairs_within_ball(
                self.points[:, 0], self.points[:, 1], members, owners, radius,
                centers=(centers[:, 0], centers[:, 1]),
            )
        )
        return owners.take(keep), members.take(keep)

    def query_radius_many(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        """Answer all ``centers`` at once: one sorted index array per center.

        See :meth:`_matches` for the vectorised, blocked candidate gather;
        the flat matches are grouped per center by
        :func:`~repro.kernels.ops.pair_candidates`.
        """
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0:
            return []
        owners, members = self._matches(centers, radius)
        return kernel_ops.pair_candidates(owners, members, len(centers), len(self.points))

    def count_radius_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per-center neighbour counts — skips the grouping of the full query."""
        _check_radius(radius)
        centers = as_points(centers)
        owners, _ = self._matches(centers, radius)
        return kernel_ops.count_in_balls(owners, len(centers))

    def query_pairs(self, radius: float) -> np.ndarray:
        """All pairs within ``radius`` (``i < j``, lexicographically ordered)."""
        _check_radius(radius)
        return _canonical_pairs(*self._matches(self.points, radius, self_join=True))

    # -- nearest-neighbour queries ---------------------------------------------
    def _ring_cells(
        self,
        cx: int,
        cy: int,
        ring: int,
        box_lo: Tuple[int, int],
        box_hi: Tuple[int, int],
    ) -> List[Tuple[int, int]]:
        """Cells on the Chebyshev ring around ``(cx, cy)``, clipped to the
        occupied bounding box (so far-away centers never walk empty rings)."""
        if ring == 0:
            if box_lo[0] <= cx <= box_hi[0] and box_lo[1] <= cy <= box_hi[1]:
                return [(cx, cy)]
            return []
        cells: List[Tuple[int, int]] = []
        xs = range(max(cx - ring, box_lo[0]), min(cx + ring, box_hi[0]) + 1)
        for y in (cy - ring, cy + ring):
            if box_lo[1] <= y <= box_hi[1]:
                cells.extend((x, y) for x in xs)
        ys = range(max(cy - ring + 1, box_lo[1]), min(cy + ring - 1, box_hi[1]) + 1)
        for x in (cx - ring, cx + ring):
            if box_lo[0] <= x <= box_hi[0]:
                cells.extend((x, y) for y in ys)
        return cells

    def query_nearest(self, centers: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` nearest stored points per center (``(q, k)``).

        Expanding-ring search: cells are scanned in growing Chebyshev rings
        around each center's cell.  Any point in an unscanned ring ``ρ + 1``
        lies strictly beyond ``ρ·cell_size``, so once the k-th candidate
        distance drops to that bound the answer is complete; one extra guard
        ring absorbs the half-ULP windows of the bound arithmetic.  Exact
        distance ties are broken by ascending point index (deterministic —
        :class:`KDTreeIndex` inherits scipy's unspecified tie order instead,
        a measure-zero difference for continuous inputs).  As for the KD-tree
        backend, fewer than ``k`` stored points return ``min(k, n)`` columns
        and an empty index raises.
        """
        if k < 1:
            raise ValueError("k must be positive")
        centers = as_points(centers)
        if len(self) == 0:
            raise ValueError("cannot run nearest-neighbour queries on an empty index")
        k_eff = min(k, len(self))
        out = np.empty((len(centers), k_eff), dtype=np.int64)
        box_lo = (int(self._key_min[0]), int(self._key_min[1]))
        box_hi = (
            int(self._key_min[0] + self._spans[0]) - 1,
            int(self._key_min[1] + self._spans[1]) - 1,
        )
        keys = self._exact_keys(centers)
        for row, center in enumerate(centers):
            cx, cy = int(keys[row, 0]), int(keys[row, 1])
            # Chebyshev distance from the center's cell to the occupied box:
            # rings below it hold no cells, rings beyond `last` none either.
            start = max(
                0, box_lo[0] - cx, cx - box_hi[0], box_lo[1] - cy, cy - box_hi[1]
            )
            last = max(
                abs(cx - box_lo[0]),
                abs(cx - box_hi[0]),
                abs(cy - box_lo[1]),
                abs(cy - box_hi[1]),
            )
            parts: List[np.ndarray] = []
            count = 0
            ring = start
            guard_scanned = False
            while ring <= last:
                for cell in self._ring_cells(cx, cy, ring, box_lo, box_hi):
                    arr = self._cell_slice(*cell)
                    if arr.size:
                        parts.append(arr)
                        count += arr.size
                if guard_scanned:
                    break
                if count >= k_eff:
                    cand = np.concatenate(parts)
                    diff = self.points[cand] - center
                    dists = np.hypot(diff[:, 0], diff[:, 1])
                    kth = np.partition(dists, k_eff - 1)[k_eff - 1]
                    if kth <= ring * self.cell_size:
                        guard_scanned = True  # one more ring, then done
                ring += 1
            cand = np.concatenate(parts)
            diff = self.points[cand] - center
            dists = np.hypot(diff[:, 0], diff[:, 1])
            order = np.lexsort((cand, dists))
            out[row] = cand[order[:k_eff]]
        return out


class KDTreeIndex(_IndexBase):
    """:class:`scipy.spatial.cKDTree` behind the :class:`SpatialIndex` surface.

    ``cKDTree`` is only used for candidate generation (at the slightly
    inflated :func:`_candidate_radius`, so its internal squared-distance
    pruning — which underflows for subnormal offsets and can disagree with
    the exact ball by an ULP on boundary pairs — never decides membership);
    every hit is post-filtered through the same :func:`within_ball` predicate
    :class:`GridIndex` applies, and result ordering is normalised, so the two
    backends are interchangeable array-for-array.
    """

    def __init__(self, points: np.ndarray) -> None:
        # scipy is imported on first construction: the grid backend and the
        # serving path never load it.
        from scipy.spatial import cKDTree

        self.points = as_points(points)
        self._tree = cKDTree(self.points) if len(self.points) else None
        if self._tree is not None:
            self._lo = self.points.min(axis=0)
            self._hi = self.points.max(axis=0)

    def _tree_fits(self, centers: np.ndarray) -> bool:
        """Whether ``cKDTree``'s squared distances stay finite for ``centers``.

        The tree squares coordinate differences across the bounding box of
        its points and the query centers, and raises an overflow
        ``ValueError`` once their sum leaves the float64 range (spreads past
        ~1e154), although the exact predicate is still well defined.  Under
        ``workers=-1`` scipy raises inside a worker thread, which swallows
        the error and hands back ``None`` hit lists or garbage counts.  So
        the regime is decided here, before scipy is called: queries outside
        it take the exact brute-force :func:`within_ball` path instead.
        """
        lo = np.minimum(self._lo, centers.min(axis=0))
        hi = np.maximum(self._hi, centers.max(axis=0))
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.isfinite(np.sum(np.square(hi - lo))))

    def _filter(self, hits: Iterable[int], center: np.ndarray, radius: float) -> np.ndarray:
        """Sorted hit indices that pass the shared exact-ball predicate."""
        idx = np.asarray(hits, dtype=np.int64)
        if idx.size:
            idx = idx[within_ball(self.points[idx], center, radius)]
        return np.sort(idx)

    def _candidates(self, centers: np.ndarray, radius: float, parallel: bool = False) -> List:
        """Per-center candidate hit lists at the inflated radius.

        ``parallel`` turns on scipy's ``workers=-1`` thread fan-out (bulk
        callers only; a single-center query pays more in dispatch than it
        gains).  Per-center hit *contents* are unaffected by the worker
        count, and every hit still goes through the exact post-filter.
        Outside the tree's overflow-free regime (:meth:`_tree_fits`) the
        candidates are the exact brute-force hits instead, so both backends
        keep answering identically.
        """
        if not self._tree_fits(centers):
            return [np.nonzero(within_ball(self.points, c, radius))[0] for c in centers]
        return self._tree.query_ball_point(
            centers, _candidate_radius(radius), workers=-1 if parallel else 1
        )

    def query_radius(self, center: Iterable[float], radius: float) -> np.ndarray:
        _check_radius(radius)
        if self._tree is None:
            return np.zeros(0, dtype=np.int64)
        center = np.asarray(tuple(center), dtype=np.float64)
        hits = self._candidates(center[None, :], radius)[0]
        return self._filter(hits, center, radius)

    def query_radius_many(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0:
            return []
        if self._tree is None:
            return [np.zeros(0, dtype=np.int64) for _ in range(len(centers))]
        hits = self._candidates(centers, radius, parallel=len(centers) > 1)
        return [self._filter(h, center, radius) for center, h in zip(centers, hits)]

    def count_radius_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per-center neighbour counts via cKDTree's ``return_length`` fast path.

        ``return_length`` counts in C but with the tree's own squared-distance
        predicate, which can disagree with :func:`within_ball` only for points
        in the shell between ``radius·(1 − 1e-12)`` and
        :func:`_candidate_radius`: every point the lower count includes is
        strictly inside the closed ball, every closed-ball point is included
        by the upper count, so wherever the two counts coincide the shell is
        empty and the count is already exact.  Only the (rare) centers whose
        counts differ are re-counted with the exact predicate.  Radii outside
        :func:`_squares_bracket` — where squared distances go subnormal or
        overflow and the bracketing argument breaks down — take the exact
        path for every center with a candidate.
        """
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0 or self._tree is None:
            return np.zeros(len(centers), dtype=np.int64)
        if not self._tree_fits(centers):
            hits = self._candidates(centers, radius)
            return np.fromiter((len(h) for h in hits), dtype=np.int64, count=len(centers))
        workers = -1 if len(centers) > 1 else 1
        upper = np.asarray(
            self._tree.query_ball_point(
                centers, _candidate_radius(radius), return_length=True, workers=workers
            ),
            dtype=np.int64,
        )
        if not _squares_bracket(radius):
            counts = np.zeros(len(centers), dtype=np.int64)
            ambiguous = np.nonzero(upper)[0]
        else:
            counts = np.asarray(
                self._tree.query_ball_point(
                    centers, radius * (1.0 - 1e-12), return_length=True, workers=workers
                ),
                dtype=np.int64,
            )
            ambiguous = np.nonzero(upper != counts)[0]
        if ambiguous.size:
            hits = self._candidates(centers[ambiguous], radius)
            for i, h in zip(ambiguous, hits):
                idx = np.asarray(h, dtype=np.int64)
                counts[i] = int(np.count_nonzero(within_ball(self.points[idx], centers[i], radius)))
        return counts

    def query_pairs(self, radius: float) -> np.ndarray:
        _check_radius(radius)
        if self._tree is None or len(self) < 2:
            return np.zeros((0, 2), dtype=np.int64)
        if not self._tree_fits(self.points):
            return _canonical_pairs(*_flatten_lists(self.query_radius_many(self.points, radius)))
        pairs = self._tree.query_pairs(r=_candidate_radius(radius), output_type="ndarray")
        if pairs.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        x, y = self.points[:, 0], self.points[:, 1]
        keep = _pairs_within_ball(x, y, pairs[:, 0], pairs[:, 1], radius)
        if not keep.all():
            pairs = pairs[keep]
        # cKDTree reports each pair once with i < j, in no particular order.
        return kernel_ops.splice_edges([pairs])

    def query_nearest(self, centers: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` nearest stored points per center (``(q, k)``).

        Nearest first; when fewer than ``k`` points are stored the available
        columns are returned (callers pad).  Exact distance ties keep
        scipy's unspecified order (:class:`GridIndex` breaks them by index
        instead) — a measure-zero divergence for continuous inputs.
        """
        if k < 1:
            raise ValueError("k must be positive")
        centers = as_points(centers)
        if self._tree is None:
            raise ValueError("cannot run nearest-neighbour queries on an empty index")
        k_eff = min(k, len(self))
        _, idx = self._tree.query(centers, k=k_eff)
        return np.asarray(idx, dtype=np.int64).reshape(len(centers), k_eff)


#: Names accepted by :func:`build_index`.
BACKENDS = ("grid", "kdtree")


def build_index(
    points: np.ndarray,
    radius: float | None = None,
    backend: str = "grid",
    cell_size: float | None = None,
) -> SpatialIndex:
    """Build a :class:`SpatialIndex` over ``points``.

    Parameters
    ----------
    points:
        ``(n, 2)`` point coordinates.
    radius:
        The query radius the index will mostly serve.  The grid backend uses
        it as its cell size (the optimal choice for fixed-radius queries);
        the KD-tree backend ignores it.
    backend:
        ``"grid"`` or ``"kdtree"``.
    cell_size:
        Grid-only override of the cell size derived from ``radius``.
    """
    if backend == "kdtree":
        return KDTreeIndex(points)
    if backend == "grid":
        size = cell_size if cell_size is not None else radius
        if size is None or size <= 0:
            size = 1.0  # radius-0 queries only match coincident points; any cell works
        return GridIndex(points, cell_size=size)
    raise ValueError(f"unknown spatial-index backend {backend!r}; known: {', '.join(BACKENDS)}")
