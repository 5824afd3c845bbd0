"""The kernel API: six vectorised hot-path primitives.

Every interpreter-bound inner loop of the stack reduces to one of these:

* :func:`cell_gather` — expand packed cell-table hits into (owner, member)
  candidate pairs: one ``searchsorted`` + vectorised range gather.  The
  engine under ``GridIndex._matches`` and the dynamic layer's bulk queries.
* :func:`within_ball_mask` — the exact closed-ball predicate (true
  Euclidean distance via ``hypot``, no tolerance; at ``radius == 0`` only
  coincident points qualify).  Shared by both index backends, so they agree
  on every boundary pair.
* :func:`count_in_balls` — per-owner candidate counts (the count-only
  bulk query's tail).
* :func:`pair_candidates` — group matched (owner, member) pairs into one
  sorted member array per owner (the bulk query's tail).
* :func:`splice_edges` — merge edge fragments into the canonical sorted,
  duplicate-free ``(m, 2)`` pair array.  The one canonical edge-set path:
  ``GeometricGraph`` construction, the kNN builder, the spanners' candidate
  edges, the KD-tree ``query_pairs``, repair re-splice and shard stitching.
  Endpoints must lie in ``[0, 2**31)`` (rows pack into one int64 key).
* :func:`step_events` — total-order event scheduling: the pop order of a
  pending ``(time, sequence)`` batch (the ``EventQueue`` stepping loop).

Each is a numpy implementation, certified byte-identical to the scalar loop
it replaced (:mod:`repro.kernels.reference`).  When a
:class:`~repro.kernels.profile.KernelProfiler` is installed, every call
accounts its calls/ns/bytes under the kernel's name.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.kernels.layout import CellTable
from repro.kernels.profile import active_profiler

__all__ = [
    "cell_gather",
    "within_ball_mask",
    "count_in_balls",
    "pair_candidates",
    "splice_edges",
    "step_events",
]

_EMPTY_IDS = np.zeros(0, dtype=np.int64)

_Kernel = TypeVar("_Kernel", bound=Callable[..., Any])


def _metered(nbytes: Callable[..., int]) -> Callable[[_Kernel], _Kernel]:
    """Account a kernel's calls/ns/bytes with the installed profiler.

    With no profiler installed a call pays one ``None`` check.  Otherwise
    the call is timed on the profiler's clock and recorded under the
    kernel's name with ``nbytes(out, *args, **kwargs)`` bytes touched.
    """

    def wrap(impl: _Kernel) -> _Kernel:
        name = impl.__name__

        @functools.wraps(impl)
        def kernel(*args: Any, **kwargs: Any) -> Any:
            prof = active_profiler()
            if prof is None:
                return impl(*args, **kwargs)
            t0 = prof.clock()
            out = impl(*args, **kwargs)
            prof.record(name, prof.clock() - t0, nbytes(out, *args, **kwargs))
            return out

        return kernel  # type: ignore[return-value]

    return wrap


@_metered(lambda out, table, packed, owners: (
    packed.nbytes + owners.nbytes + out[0].nbytes + out[1].nbytes
))
def cell_gather(
    table: CellTable, packed: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand cell-table hits into (owner, member) candidate pairs.

    ``packed[i]`` is a packed cell id wanted by query ``owners[i]``; for
    every id present in ``table`` the cell's members are emitted paired
    with their owner, in ``packed`` order (cells absent from the table
    contribute nothing).  Returns ``(owners_expanded, members)``.
    """
    cell_ids = table.cell_ids
    n_cells = len(cell_ids)
    if n_cells == 0 or len(packed) == 0:
        return _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
    pos = np.searchsorted(cell_ids, packed)
    hit = (pos < n_cells) & (cell_ids[np.minimum(pos, n_cells - 1)] == packed)
    if not hit.any():
        return _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
    rows = np.flatnonzero(hit)
    pos = pos.take(rows)
    counts = table.counts.take(pos)
    # Range gather: run k covers flat positions [ends[k] - counts[k], ends[k]),
    # and its i-th element is table position starts[k] + i.
    ends = np.cumsum(counts)
    flat = np.repeat(table.starts.take(pos) - (ends - counts), counts)
    flat += np.arange(len(flat), dtype=np.int64)
    return np.repeat(owners.take(rows), counts), table.order.take(flat)


@_metered(lambda out, points, center, radius: np.asarray(points).nbytes + out.nbytes)
def within_ball_mask(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Exact closed-ball membership mask (see ``geometry.index.within_ball``).

    ``center`` broadcasts against ``points``: one ``(2,)`` center or one
    center per point.  True Euclidean distance via ``hypot`` — never
    squared, which underflows for subnormal offsets.
    """
    diff = points - center
    return np.hypot(diff[..., 0], diff[..., 1]) <= radius


@_metered(lambda out, owners, n_owners: owners.nbytes + out.nbytes)
def count_in_balls(owners: np.ndarray, n_owners: int) -> np.ndarray:
    """Per-owner match counts from the mask-filtered owner column."""
    return np.bincount(owners, minlength=n_owners)


@_metered(lambda out, owners, members, n_owners, member_bound: (
    owners.nbytes + members.nbytes
))
def pair_candidates(
    owners: np.ndarray, members: np.ndarray, n_owners: int, member_bound: int
) -> List[np.ndarray]:
    """Group matched (owner, member) pairs into per-owner sorted arrays.

    ``member_bound`` is an exclusive upper bound on member values (the
    indexed point count), letting the fast path sort one collision-free
    combined key ``owner * bound + member`` instead of a two-key lexsort;
    the overflow fallback is byte-identical.
    """
    # A single combined-key argsort is ~10x faster than the equivalent
    # two-key lexsort; fall back when the combined key could overflow int64.
    bound = max(1, int(member_bound))
    if int(n_owners) * bound < 2**62:
        order = np.argsort(owners * bound + members, kind="stable")
    else:
        order = np.lexsort((members, owners))
    members = members[order]
    per_owner = np.bincount(owners, minlength=n_owners)
    return np.split(members, np.cumsum(per_owner)[:-1])


#: Row packing radix of :func:`splice_edges`: a row ``(a, b)`` with both
#: endpoints in ``[0, 2**31)`` packs to the int64 key ``a * 2**31 + b``,
#: whose order is the rows' lexicographic order.
_PACK = 1 << 31


@_metered(lambda out, parts: out.nbytes)
def splice_edges(
    parts: Sequence[Union[np.ndarray, Sequence[Tuple[int, int]]]]
) -> np.ndarray:
    """Merge edge fragments into the canonical sorted unique ``(m, 2)`` array.

    Byte-identical to ``np.asarray(sorted(set(map(tuple, ...))))`` over the
    pooled fragments.  Rows are taken as given (callers orient them); every
    endpoint must lie in ``[0, 2**31)``, else ``ValueError``.  One sort of
    packed int64 keys plus an adjacent-duplicate mask, decoded back into
    rows; a single fragment is read in place, never copied or mutated.
    """
    arrays = [np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in parts]
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return np.zeros((0, 2), dtype=np.int64)
    rows = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)
    if rows.min() < 0 or rows.max() >= _PACK:
        raise ValueError("splice_edges: endpoints must lie in [0, 2**31)")
    keys = rows[:, 0] * _PACK
    keys += rows[:, 1]
    keys.sort()
    keep = np.empty(len(keys), dtype=np.bool_)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    out = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, _PACK, out=(out[:, 0], out[:, 1]))
    return out


@_metered(lambda out, times, seqs, **_: times.nbytes + seqs.nbytes + out.nbytes)
def step_events(
    times: np.ndarray,
    seqs: np.ndarray,
    *,
    until: Optional[float] = None,
    max_events: Optional[int] = None,
) -> np.ndarray:
    """Pop order of a pending event batch under the ``(time, seq)`` total order.

    Returns the indices of the events to process, in processing order:
    ascending time, ties broken by ascending sequence number (which is
    unique, so the order is total).  ``until`` keeps only events with
    ``time <= until``; ``max_events`` truncates the batch.
    """
    order = np.lexsort((seqs, times))
    if until is not None:
        # times[order] ascends, so the kept set is a prefix.
        cut = int(np.searchsorted(times[order], until, side="right"))
        order = order[:cut]
    if max_events is not None:
        order = order[: max(0, int(max_events))]
    return order
