"""Worker side of the sharded distributed build.

A shard owns a contiguous block of tile *columns* of the
:class:`~repro.core.tiling.Tiling` grid plus a one-tile-wide ghost (halo)
column on each side.  One tile column is the widest footprint any
construction decision reads: elections and goodness are functions of a single
tile's membership, overlay splices of one adjacent tile pair — so a worker
that sees its owned columns plus their immediate neighbours can reproduce
every decision of :func:`~repro.distributed.construct.distributed_build`
that touches an owned tile, with zero cross-worker communication.

Exactness discipline (the "repair equals rebuild" rules, applied to
sharding):

* **Decisions go through the shared pass.**  Region membership, elections
  and goodness come from one :func:`~repro.core.goodness.decide_tiles` call
  over the shard's rows, halo included — the pass the centralised
  classifier and the repair engine run — and pair splices from
  :func:`~repro.core.overlay.cross_tile_edges`, so shard-count invariance is
  structural.  ``distributed_build`` decides through its own scalar helpers,
  which makes :func:`~repro.distributed.sharding.matches_unsharded` against
  it a cross-implementation check.
* **Owned work only is counted.**  Halo tiles get elections and goodness
  computed (boundary pairs need them) but contribute no message counts and no
  good-tile records; an adjacent pair is owned by the shard owning its
  left/bottom tile.  Summing per-shard counts therefore reproduces the
  unsharded :class:`~repro.distributed.network.NetworkStats` exactly.

Like the repair engine, a shard computes the protocol's decisions directly
instead of simulating message delivery, and does not re-verify radio-range
locality (a property of the construction's geometry, not of who computes it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os
import resource
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.goodness import decide_tiles
from repro.core.overlay import cross_tile_edges
from repro.core.tiles_base import TileSpec
from repro.core.tiling import TileIndex, Tiling
from repro.distributed.repair import decision_messages
from repro.faults.plan import InjectedWorkerCrash
from repro.kernels import ops as kernel_ops
from repro.kernels.layout import POSITIONS, ROW_IDS
from repro.shard.shm import attach_block

__all__ = ["ShardTask", "ShardResult", "build_shard", "run_shard_task"]

#: Each unordered adjacent tile pair is owned by its left/bottom tile
#: (identical to the repair engine's pair ownership).
_PAIR_DIRECTIONS = ("right", "top")

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)


@dataclass(frozen=True)
class ShardTask:
    """Everything a pool worker needs to build one shard.

    Positions and member rows travel through named shared-memory segments
    (:mod:`repro.shard.shm`), so the per-task pickle is a few hundred bytes
    regardless of deployment size.

    The three fault flags are set by the parent from its seeded
    :class:`~repro.faults.plan.FaultInjector` at submit time (the pool
    worker stays deterministic and RNG-free): ``crash`` raises
    :class:`~repro.faults.plan.InjectedWorkerCrash` before any work,
    ``hard_crash`` kills the worker *process* outright (breaking the pool —
    the parent must recreate it), ``stall_s`` sleeps that long first to
    simulate a straggler.
    """

    shard_id: int
    col_start: int
    col_stop: int
    spec: TileSpec
    tiling: Tiling
    k: int | None
    positions_shm: str
    capacity: int
    rows_shm: str
    rows_total: int
    rows_offset: int
    rows_count: int
    crash: bool = False
    hard_crash: bool = False
    stall_s: float = 0.0


@dataclass
class ShardResult:
    """One shard's contribution to the stitched build.

    ``good`` holds the *owned* good tiles as ``(tile, representative,
    relays)`` records; ``edges`` every overlay edge of an owned pair (global
    ``(min, max)`` id pairs, sorted); ``counts`` the protocol messages of the
    owned tiles and pairs.  ``wall_s`` / ``max_rss_kb`` are the
    per-worker resource accounting surfaced through
    :class:`~repro.distributed.sharding.ShardedBuildInfo` (``ru_maxrss`` is a
    process-lifetime high-water mark, so for a reused pool worker it is an
    upper bound, not a per-task measurement).
    """

    shard_id: int
    good: List[Tuple[TileIndex, int, Dict[str, int]]] = field(default_factory=list)
    edges: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES)
    counts: Dict[str, int] = field(default_factory=dict)
    n_owned: int = 0
    n_halo: int = 0
    wall_s: float = 0.0
    max_rss_kb: int = 0


def build_shard(
    points: np.ndarray,
    rows: np.ndarray,
    spec: TileSpec,
    tiling: Tiling,
    col_start: int,
    col_stop: int,
    k: int | None = None,
) -> ShardResult:
    """Run the construction decisions for one shard.

    ``points`` is the full (global-row-indexed) position buffer; ``rows`` the
    ascending global row ids of the alive in-grid members of tile columns
    ``[col_start - 1, col_stop]`` — the owned block plus its halo columns.
    """
    start = time.perf_counter()
    shard_id = -1  # set by run_shard_task; direct callers get it from their loop
    result = ShardResult(shard_id=shard_id)
    rows = np.asarray(rows, dtype=np.int64)
    decisions = decide_tiles(points, rows, tiling, spec, k)
    cols = decisions.tiles[:, 0]
    owned = (cols >= col_start) & (cols < col_stop)
    result.n_owned = int(decisions.members[owned].sum())
    result.n_halo = int(rows.size - result.n_owned)
    counts = decision_messages(decisions, spec, owned)

    all_good = {tile: (rep, relays) for tile, good, rep, relays in decisions.outcomes(spec) if good}
    good_owned = [
        (tile, rep, relays) for tile, (rep, relays) in all_good.items() if col_start <= tile[0] < col_stop
    ]

    edge_parts: List[List[Tuple[int, int]]] = []
    for tile, rep, relays in good_owned:
        neighbours = tiling.neighbours(tile)
        for direction in _PAIR_DIRECTIONS:
            other = all_good.get(neighbours.get(direction))
            if other is None:
                continue
            pair_edges, (a, b) = cross_tile_edges(spec, direction, rep, relays, other[0], other[1])
            if a != b:
                counts["border-request"] = counts.get("border-request", 0) + 1
                counts["border-ack"] = counts.get("border-ack", 0) + 1
            edge_parts.append(pair_edges)

    result.good = good_owned
    result.edges = kernel_ops.splice_edges(edge_parts)
    result.counts = counts
    result.wall_s = time.perf_counter() - start
    result.max_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result


def run_shard_task(task: ShardTask) -> ShardResult:
    """Pool entry point: attach the shared segments, build, detach.

    Injected faults fire *before* any shared segment is attached, so a
    crashing task can never leak an attachment; the stall is capped at one
    second so a mis-specified plan cannot wedge a CI run.
    """
    if task.hard_crash:
        os._exit(17)  # a real worker death: no cleanup, the pool breaks
    if task.crash:
        raise InjectedWorkerCrash(f"injected crash in shard {task.shard_id}")
    if task.stall_s > 0.0:
        time.sleep(min(float(task.stall_s), 1.0))
    positions_shm = attach_block(task.positions_shm)
    try:
        # Views come off the shared SoA buffer descriptions (layout.POSITIONS
        # / layout.ROW_IDS) — the same specs the owner sized the blocks with,
        # so the two sides cannot disagree on dtype or stride.
        points = POSITIONS.view(positions_shm.buf, task.capacity)
        rows_shm = attach_block(task.rows_shm)
        try:
            all_rows = ROW_IDS.view(rows_shm.buf, task.rows_total)
            # Copy the slice out of the segment so nothing in the result can
            # alias a buffer the owner is about to unlink.
            rows = np.array(all_rows[task.rows_offset : task.rows_offset + task.rows_count])
            result = build_shard(
                points, rows, task.spec, task.tiling, task.col_start, task.col_stop, task.k
            )
            result.shard_id = task.shard_id
            return result
        finally:
            rows_shm.close()
    finally:
        positions_shm.close()
