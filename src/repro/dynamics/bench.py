"""S02/S03 — the dynamics hot paths against their naive baselines.

**S02** (:func:`experiment_s02_incremental_maintenance`): maintaining a
queryable spatial index while nodes move.  The naive approach rebuilds
:func:`repro.geometry.index.build_index` from scratch every step; the
:class:`~repro.dynamics.incremental.DynamicSpatialIndex` patches only the
cells of boundary-crossing nodes.  Timed on the same precomputed trajectory,
with a byte-identity check against the final rebuild, in both the mobility
and the churn regime.

**S03** (:func:`experiment_s03_repair_fast_path`): the PR-4 repair fast
paths.  Arm one times the vectorised
:meth:`~repro.dynamics.incremental.DynamicSpatialIndex.query_radius_many`
against the pre-optimisation scalar-per-center loop on a *dirty* index,
asserting byte equality.  Arm two times the diff-driven
:class:`~repro.distributed.repair.DistributedRepairEngine` against a full
:func:`~repro.distributed.construct.distributed_build` per step under sparse
motion (~1% of nodes per step), asserting the spliced result equals the
from-scratch build.  Arm three reports absolute
:meth:`~repro.dynamics.topology.TopologyTracker.update` milliseconds per tick
(median and IQR) at fixed density — λ=20, 16 nodes moved by up to ±0.3 per
axis per tick, the serve workload's move model — for several deployment
sizes, so a tracker cost that grows with E instead of with the dirty set
shows as a slope across the rows; every size must still match a recompute.

Both register through :mod:`repro.runner` like S01: rows carry wall-clock
timings and are not byte-stable across recomputations; the agreement
headlines are deterministic.  An identical parameter set is a runner cache
hit (``--force`` re-measures).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.experiments import ExperimentResult
from repro.analysis.spatial_bench import _best_of
from repro.core.tiles_udg import UDGTileSpec
from repro.distributed.construct import distributed_build
from repro.distributed.repair import DistributedRepairEngine
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.dynamics.mobility import reflect_into
from repro.dynamics.topology import TopologyTracker
from repro.geometry.index import build_index
from repro.geometry.poisson import poisson_points
from repro.geometry.primitives import Rect
from repro.runner.registry import register

__all__ = [
    "experiment_s02_incremental_maintenance",
    "experiment_s03_repair_fast_path",
]

#: The S03 tracker arm's fixed workload: deployment intensity, nodes moved
#: per tick, per-axis move bound and timed ticks per size.
_TRACKER_INTENSITY = 20.0
_TRACKER_DIRTY = 16
_TRACKER_STEP = 0.3
_TRACKER_TICKS = 40


@register("S02")
def experiment_s02_incremental_maintenance(
    n_points: int = 20000,
    n_steps: int = 15,
    step_fraction: float = 0.005,
    radius: float = 1.0,
    intensity: float = 2.0,
    churn_count: int = 20,
    repeats: int = 3,
    seed: int = 304,
) -> ExperimentResult:
    """Incremental maintenance vs rebuild-per-step on the mobility hot path.

    Parameters
    ----------
    n_points:
        Target expected deployment size (window side is
        ``sqrt(n_points / intensity)``).
    n_steps:
        Timeline steps per timed run.
    step_fraction:
        Per-step per-axis rms displacement as a fraction of ``radius``
        (fine-grained timesteps: a node covers one radio range in roughly
        ``1 / step_fraction`` steps).
    radius:
        Query radius / grid cell size.
    intensity:
        Deployment intensity (controls the occupancy per grid cell).
    churn_count:
        Nodes failing + arriving per step in the churn arm.
    repeats:
        Timing repetitions per arm (best-of).
    seed:
        RNG seed for the deployment and the trajectory.
    """
    if n_points < 1 or n_steps < 1:
        raise ValueError("n_points and n_steps must be positive")
    if radius <= 0 or intensity <= 0:
        raise ValueError("radius and intensity must be positive")
    if step_fraction <= 0:
        raise ValueError("step_fraction must be positive")
    if churn_count < 1:
        raise ValueError("churn_count must be positive")
    rng = np.random.default_rng(seed)
    side = float(np.sqrt(n_points / intensity))
    window = Rect(0, 0, side, side)
    pts = poisson_points(window, intensity, rng)
    if len(pts) < 2:
        return ExperimentResult(
            experiment_id="S02",
            title="Incremental index maintenance vs rebuild-per-step",
            paper_reference="dynamics hot path (mobility maintenance)",
            rows=[],
            headline={
                "mobility_speedup_vs_rebuild": None,
                "churn_speedup_vs_rebuild": None,
                "results_agree": None,
            },
            notes=["degenerate realisation (< 2 points); nothing to measure"],
        )

    # Precompute the trajectory outside the timed region so both arms replay
    # the exact same positions.
    trajectory = [pts]
    for _ in range(n_steps):
        displaced = trajectory[-1] + rng.normal(0, step_fraction * radius, size=pts.shape)
        trajectory.append(reflect_into(displaced, window))

    # Both strategies pay one index build at deployment time; the quantity
    # under comparison is the *per-step maintenance* cost, so the incremental
    # arm's clock starts after its (un-timed) initial build — exactly as the
    # rebuild arm's clock covers only the per-step builds.
    def run_incremental() -> tuple[float, DynamicSpatialIndex]:
        dyn = DynamicSpatialIndex(pts, radius=radius)
        started = time.perf_counter()
        for positions in trajectory[1:]:
            dyn.move(dyn.ids(), positions)
        return time.perf_counter() - started, dyn

    def run_rebuild() -> None:
        for positions in trajectory[1:]:
            build_index(positions, radius=radius, backend="grid")

    mobility_inc_s = min(run_incremental()[0] for _ in range(max(1, repeats)))
    mobility_full_s = _best_of(repeats, run_rebuild)

    # Agreement check: the final incremental state answers exactly like a
    # from-scratch rebuild over the final positions (deterministic headline).
    dyn = run_incremental()[1]
    rebuilt = build_index(dyn.positions(), radius=radius, backend="grid")
    ids = dyn.ids()
    results_agree = all(
        np.array_equal(a, ids[b])
        for a, b in zip(dyn.neighbour_lists(radius), rebuilt.neighbour_lists(radius))
    )

    # Churn regime: static survivors, churn_count deletes + arrivals per step.
    # The plan (delete rows in alive order + arrival positions) is drawn once
    # outside the clocks; both arms replay the identical schedule.
    churn_plan = []
    alive_preview = len(pts)
    for _ in range(n_steps):
        k = min(churn_count, max(alive_preview - 2, 0))
        rows = rng.choice(alive_preview, size=k, replace=False) if k else np.zeros(0, np.int64)
        churn_plan.append((rows, window.sample_uniform(churn_count, rng)))
        alive_preview += churn_count - k

    def run_churn_incremental() -> float:
        dyn = DynamicSpatialIndex(pts, radius=radius)
        started = time.perf_counter()
        for rows, arrivals in churn_plan:
            if len(rows):
                dyn.delete(dyn.ids()[rows])
            dyn.insert(arrivals)
        return time.perf_counter() - started

    def run_churn_rebuild() -> None:
        positions = pts
        for rows, arrivals in churn_plan:
            if len(rows):
                keep = np.ones(len(positions), dtype=bool)
                keep[rows] = False
                positions = positions[keep]
            positions = np.vstack([positions, arrivals])
            build_index(positions, radius=radius, backend="grid")

    churn_inc_s = min(run_churn_incremental() for _ in range(max(1, repeats)))
    churn_full_s = _best_of(repeats, run_churn_rebuild)

    def per_step(total_s: float) -> float:
        return round(total_s * 1e3 / n_steps, 4)

    rows: List[Dict] = [
        {"regime": "mobility", "arm": "incremental", "per_step_ms": per_step(mobility_inc_s)},
        {"regime": "mobility", "arm": "rebuild", "per_step_ms": per_step(mobility_full_s)},
        {"regime": "churn", "arm": "incremental", "per_step_ms": per_step(churn_inc_s)},
        {"regime": "churn", "arm": "rebuild", "per_step_ms": per_step(churn_full_s)},
    ]
    return ExperimentResult(
        experiment_id="S02",
        title="Incremental index maintenance vs rebuild-per-step",
        paper_reference="dynamics hot path (mobility maintenance)",
        rows=rows,
        headline={
            "mobility_speedup_vs_rebuild": (
                round(mobility_full_s / mobility_inc_s, 2) if mobility_inc_s > 0 else None
            ),
            "churn_speedup_vs_rebuild": (
                round(churn_full_s / churn_inc_s, 2) if churn_inc_s > 0 else None
            ),
            "results_agree": bool(results_agree),
        },
        notes=[
            "Wall-clock rows vary between reruns; only results_agree is deterministic. "
            "Clocks cover per-step maintenance only — both strategies pay one un-timed "
            "index build at deployment time.  The incremental advantage shrinks as "
            "step_fraction grows (more boundary crossings to patch) and full rebuilds "
            "win past a few percent of the radius per step.",
        ],
    )


@register("S03")
def experiment_s03_repair_fast_path(
    n_points: int = 20000,
    n_centers: int = 100000,
    n_steps: int = 5,
    move_fraction: float = 0.01,
    move_scale: float = 0.2,
    churn_count: int = 20,
    radius: float = 1.0,
    intensity: float = 2.0,
    repeats: int = 2,
    seed: int = 305,
    tracker_sizes: Sequence[int] = (400, 4000, 40000),
) -> ExperimentResult:
    """Repair fast paths: vectorised dynamic bulk queries + diff-driven rebuild.

    Parameters
    ----------
    n_points:
        Target expected deployment size (window side is
        ``sqrt(n_points / intensity)``).
    n_centers:
        Query centers of the bulk arm.
    n_steps:
        Sparse-motion steps of the repair arm.
    move_fraction:
        Fraction of nodes moving per repair-arm step (the sparse-motion
        regime the repair engine is built for).
    move_scale:
        Per-axis displacement rms of one move, as a fraction of ``radius``.
    churn_count:
        Deletes + inserts applied before the bulk arm so the measured index
        is genuinely dirty (patched grid cells).
    radius:
        Query radius / UDG connection radius scale of the bulk arm.
    intensity:
        Poisson deployment intensity.
    repeats:
        Timing repetitions per arm (best-of).
    seed:
        RNG seed for the deployment, the churn and the move plan.
    tracker_sizes:
        Expected deployment sizes of the tracker arm (λ=20, so the window
        side is ``sqrt(size / 20)``).
    """
    if n_points < 1 or n_centers < 1 or n_steps < 1:
        raise ValueError("n_points, n_centers and n_steps must be positive")
    if any(size < 1 for size in tracker_sizes):
        raise ValueError("tracker_sizes must be positive")
    if radius <= 0 or intensity <= 0:
        raise ValueError("radius and intensity must be positive")
    if not 0 < move_fraction <= 1 or move_scale <= 0:
        raise ValueError("move_fraction must lie in (0, 1] and move_scale be positive")
    if churn_count < 0:
        raise ValueError("churn_count must be non-negative")
    rng = np.random.default_rng(seed)
    side = float(np.sqrt(n_points / intensity))
    window = Rect(0, 0, side, side)
    pts = poisson_points(window, intensity, rng)
    null_headline = {
        "bulk_speedup_grid": None,
        "repair_speedup_vs_rebuild": None,
        "bulk_results_agree": None,
        "repair_results_agree": None,
        "tracker_results_agree": None,
    }
    if len(pts) < 2:
        return ExperimentResult(
            experiment_id="S03",
            title="Repair fast path: diff-driven rebuild + vectorised bulk queries",
            paper_reference="dynamics hot path (PR-4 incremental repair)",
            rows=[],
            headline=null_headline,
            notes=["degenerate realisation (< 2 points); nothing to measure"],
        )

    rows: List[Dict] = []
    headline: Dict = dict(null_headline)

    # -- Arm one: bulk dynamic queries vs the scalar loop, on a dirty index ----
    centers = window.sample_uniform(n_centers, rng)
    n_move = max(1, int(round(move_fraction * len(pts))))
    churn = min(churn_count, max(len(pts) - 2, 0))
    dyn = DynamicSpatialIndex(pts, radius=radius)
    movers = np.sort(rng.choice(dyn.ids(), size=n_move, replace=False))
    displaced = dyn.id_positions()[movers] + rng.normal(0, move_scale * radius, size=(n_move, 2))
    dyn.move(movers, reflect_into(displaced, window))
    if churn:
        dyn.delete(np.sort(rng.choice(dyn.ids(), size=churn, replace=False)))
        dyn.insert(window.sample_uniform(churn, rng))
    holder: Dict[str, List[np.ndarray]] = {}

    def run_bulk() -> None:
        holder["bulk"] = dyn.query_radius_many(centers, radius)

    def run_scalar() -> None:
        holder["scalar"] = [dyn.query_radius(c, radius) for c in centers]

    bulk_s = _best_of(repeats, run_bulk)
    scalar_s = _best_of(repeats, run_scalar)
    speedup = scalar_s / bulk_s if bulk_s > 0 else float("inf")
    rows.append(
        {
            "arm": "bulk",
            "n_centers": len(centers),
            "bulk_ms": round(bulk_s * 1e3, 3),
            "scalar_ms": round(scalar_s * 1e3, 3),
            "speedup": round(speedup, 2),
        }
    )
    headline["bulk_speedup_grid"] = round(speedup, 1)
    headline["bulk_results_agree"] = all(
        np.array_equal(a, b) for a, b in zip(holder["bulk"], holder["scalar"])
    )

    # -- Arm two: repair engine vs distributed_build per step, sparse motion ----
    spec = UDGTileSpec.default()
    plan = []
    for _ in range(n_steps):
        movers = np.sort(rng.choice(len(pts), size=n_move, replace=False))
        plan.append((movers, rng.normal(0, move_scale * radius, size=(n_move, 2))))

    def run_repair() -> tuple[float, DistributedRepairEngine]:
        dyn = DynamicSpatialIndex(pts, radius=spec.connection_radius)
        engine = DistributedRepairEngine(dyn, spec, window)
        started = time.perf_counter()
        for movers, displacement in plan:
            target = reflect_into(dyn.id_positions()[movers] + displacement, window)
            dyn.move(movers, target)
            engine.update()
        return time.perf_counter() - started, engine

    def run_rebuild() -> None:
        positions = pts
        for movers, displacement in plan:
            positions = positions.copy()
            positions[movers] = reflect_into(positions[movers] + displacement, window)
            distributed_build(positions, spec, window)

    # run_repair is deterministic (fixed deployment and plan), so the last
    # timed run's final state doubles as the one the agreement check reads.
    repair_s = float("inf")
    for _ in range(max(1, repeats)):
        elapsed, engine = run_repair()
        repair_s = min(repair_s, elapsed)
    rebuild_s = _best_of(repeats, run_rebuild)
    rows.append({"arm": "repair", "strategy": "repair", "per_step_ms": round(repair_s * 1e3 / n_steps, 3)})
    rows.append({"arm": "repair", "strategy": "rebuild", "per_step_ms": round(rebuild_s * 1e3 / n_steps, 3)})
    headline["repair_speedup_vs_rebuild"] = (
        round(rebuild_s / repair_s, 1) if repair_s > 0 else None
    )

    # Agreement (deterministic): the spliced result equals a from-scratch
    # build over the final positions, id-mapped.
    headline["repair_results_agree"] = bool(engine.matches_rebuild())

    # -- Arm three: TopologyTracker.update per tick across deployment sizes ----
    tracker_agree = True
    for size in tracker_sizes:
        side = float(np.sqrt(size / _TRACKER_INTENSITY))
        tracker_window = Rect(0, 0, side, side)
        dyn = DynamicSpatialIndex(
            poisson_points(tracker_window, _TRACKER_INTENSITY, rng), radius=spec.connection_radius
        )
        tracker = TopologyTracker(dyn, spec.connection_radius)
        tick_ms: List[float] = []
        for _ in range(_TRACKER_TICKS):
            movers = np.sort(rng.choice(dyn.ids(), size=min(_TRACKER_DIRTY, len(dyn)), replace=False))
            step = rng.uniform(-_TRACKER_STEP, _TRACKER_STEP, size=(len(movers), 2))
            dyn.move(movers, reflect_into(dyn.id_positions()[movers] + step, tracker_window))
            started = time.perf_counter()
            tracker.update()
            tick_ms.append((time.perf_counter() - started) * 1e3)
        tracker_agree = tracker_agree and tracker.matches_recompute()
        q1, median, q3 = np.percentile(tick_ms, [25, 50, 75])
        rows.append(
            {
                "arm": "tracker",
                "n_nodes": len(dyn),
                "n_edges": tracker.n_edges,
                "update_ms_p50": round(float(median), 3),
                "update_ms_iqr": round(float(q3 - q1), 3),
            }
        )
    if tracker_sizes:
        headline["tracker_results_agree"] = bool(tracker_agree)

    return ExperimentResult(
        experiment_id="S03",
        title="Repair fast path: diff-driven rebuild + vectorised bulk queries",
        paper_reference="dynamics hot path (PR-4 incremental repair)",
        rows=rows,
        headline=headline,
        notes=[
            "Wall-clock rows vary between reruns; only the agreement headlines are "
            "deterministic.  The bulk arm queries a dirty index (post moves + churn) "
            "so the grid queries its patched cells; the repair arm's "
            "clock covers index moves + engine repair vs a full distributed_build "
            "per step under sparse motion.  The repair advantage grows with "
            "deployment size and shrinks as move_fraction approaches 1.  The tracker "
            "arm's clock covers TopologyTracker.update only (index moves untimed); "
            "its rows are absolute per-tick times, not ratios.",
        ],
    )
