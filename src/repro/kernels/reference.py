"""The scalar loops each vectorised kernel in :mod:`repro.kernels.ops` replaced.

Slow on purpose: these are the byte-identity oracle, not a runtime path.
Each function has the signature of its :mod:`~repro.kernels.ops` namesake,
so the certificate suites can swap one for the other under a consumer, and
the S06 benchmark uses them as its certificate and speedup baseline.
Nothing else calls them, and they are not metered by the kernel profiler.

The closed-ball reference calls ``np.hypot`` *per element* rather than
``math.hypot``: CPython's ``math.hypot`` is a different (correctly rounded)
algorithm that disagrees with the platform libm by 1 ULP on ~0.5% of
inputs, which would flip exact-boundary memberships.
"""

from __future__ import annotations

import bisect
from itertools import takewhile
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels.layout import CellTable

__all__ = [
    "cell_gather",
    "within_ball_mask",
    "count_in_balls",
    "pair_candidates",
    "splice_edges",
    "step_events",
]


def cell_gather(
    table: CellTable, packed: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    cell_list = table.cell_ids.tolist()
    starts = table.starts.tolist()
    counts = table.counts.tolist()
    order = table.order
    out_owners: List[int] = []
    out_members: List[int] = []
    for key, owner in zip(packed.tolist(), owners.tolist()):
        pos = bisect.bisect_left(cell_list, key)
        if pos < len(cell_list) and cell_list[pos] == key:
            start, count = starts[pos], counts[pos]
            for j in range(start, start + count):
                out_owners.append(owner)
                out_members.append(int(order[j]))
    return (
        np.array(out_owners, dtype=np.int64),
        np.array(out_members, dtype=np.int64),
    )


def within_ball_mask(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.broadcast_to(np.asarray(center, dtype=np.float64), pts.shape)
    flat_p = pts.reshape(-1, 2)
    flat_c = ctr.reshape(-1, 2)
    out = np.empty(len(flat_p), dtype=np.bool_)
    for i in range(len(flat_p)):
        # Scalar np.hypot on purpose: it is the same libm primitive the
        # vectorised path uses, so exact-boundary pairs classify identically
        # (math.hypot is a different algorithm, off by 1 ULP on ~0.5% of
        # inputs).
        out[i] = float(
            np.hypot(flat_p[i, 0] - flat_c[i, 0], flat_p[i, 1] - flat_c[i, 1])
        ) <= radius
    return out.reshape(pts.shape[:-1])


def count_in_balls(owners: np.ndarray, n_owners: int) -> np.ndarray:
    out = np.zeros(int(n_owners), dtype=np.intp)
    for owner in owners.tolist():
        out[owner] += 1
    return out


def pair_candidates(
    owners: np.ndarray, members: np.ndarray, n_owners: int, member_bound: int
) -> List[np.ndarray]:
    groups: List[List[int]] = [[] for _ in range(int(n_owners))]
    for owner, member in zip(owners.tolist(), members.tolist()):
        groups[owner].append(member)
    return [np.array(sorted(group), dtype=np.int64) for group in groups]


def splice_edges(
    parts: Sequence[Union[np.ndarray, Sequence[Tuple[int, int]]]]
) -> np.ndarray:
    edges = set()
    for part in parts:
        arr = np.asarray(part, dtype=np.int64).reshape(-1, 2)
        edges.update((int(a), int(b)) for a, b in arr)
    if not edges:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(sorted(edges), dtype=np.int64)


def step_events(
    times: np.ndarray,
    seqs: np.ndarray,
    *,
    until: Optional[float] = None,
    max_events: Optional[int] = None,
) -> np.ndarray:
    t = times.tolist()
    s = seqs.tolist()
    order = sorted(range(len(t)), key=lambda i: (t[i], s[i]))
    if until is not None:
        order = list(takewhile(lambda i: t[i] <= until, order))
    if max_events is not None:
        order = order[: max(0, int(max_events))]
    return np.array(order, dtype=np.intp)
