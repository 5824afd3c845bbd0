"""Dynamic-scenario workloads: mobility (M01), failure (F01), heterogeneity (H01).

Every experiment of the static index (E01–E12) freezes a Poisson deployment
and measures it once; these workloads evolve the deployment over time and
measure the *trajectory*.  All three register with :mod:`repro.runner` like
any other workload — parallel sweeps, the JSON-lines store, resume and the
CLI come for free — and all three drive their timeline through
:class:`repro.simulation.events.EventQueue`, the same engine the usage
simulator uses.

* **M01** — nodes move (random waypoint / billiard walk / drift field); the
  :class:`~repro.dynamics.incremental.DynamicSpatialIndex` absorbs every step
  as in-place moves and the :class:`~repro.dynamics.topology.TopologyTracker`
  repairs the UDG edge set incrementally.  Reported per step: edge churn,
  largest-component fraction, mean Euclidean stretch over sampled pairs.
* **M02** — a *distributed overlay under sparse motion*: a fraction of the
  nodes moves each step (plus light churn) and the
  :class:`~repro.distributed.repair.DistributedRepairEngine` keeps the
  Figure-7 construction current by re-electing only the tiles the diff
  touched, sharing one dirty-id stream with the UDG tracker.  Reported per
  step: dirty/changed tiles, re-spliced pairs, overlay churn and repair
  messages; the headline certifies the spliced result equals a from-scratch
  ``distributed_build`` and compares the repair message bill against one
  full build.
* **F01** — nodes fail (i.i.d. exponential lifetimes, optionally spatially
  correlated outage discs); reported per observation: survivor count, event
  coverage by the surviving sensors, connectivity.
* **H01** — per-node heterogeneous radio radii (uniform or lognormal spread)
  decaying at heterogeneous rates; reported per step: mean radius and the
  connectivity of the *bidirectional* (``d ≤ min(rᵢ, rⱼ)``) vs *union*
  (``d ≤ max(rᵢ, rⱼ)``) link graphs — the price of asymmetric links.

Rows contain no wall-clock values, so identical parameters give
byte-identical store records regardless of worker count (the runner's
determinism contract).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.experiments import ExperimentResult
from repro.core.tiles_udg import UDGTileSpec
from repro.distributed.construct import distributed_build
from repro.distributed.repair import DistributedRepairEngine
from repro.dynamics.churn import CorrelatedOutage, LifetimeChurn, heterogeneous_radii
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.dynamics.mobility import Drift, MobilityModel, RandomWalk, RandomWaypoint, reflect_into
from repro.dynamics.topology import TopologyTracker
from repro.geometry.index import build_index, within_ball
from repro.geometry.poisson import poisson_points
from repro.geometry.primitives import Rect
from repro.graphs.base import GeometricGraph
from repro.graphs.metrics import largest_component_fraction, shortest_path_euclidean
from repro.runner.registry import register
from repro.simulation.events import EventQueue
from repro.simulation.sensing import coverage_fraction

__all__ = [
    "experiment_m01_mobility",
    "experiment_m02_mobile_distributed_build",
    "experiment_f01_failure",
    "experiment_h01_heterogeneous",
]

MOBILITY_MODELS = ("waypoint", "walk", "drift")


def _spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Independent child generators so sub-processes cannot perturb each other."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _make_model(
    name: str, pts: np.ndarray, window: Rect, speed: float, rng: np.random.Generator
) -> MobilityModel:
    if name == "waypoint":
        return RandomWaypoint(pts, window, speed_range=(0.5 * speed, 1.5 * speed), rng=rng)
    if name == "walk":
        return RandomWalk(pts, window, speed=speed, turn_std=0.2, rng=rng)
    if name == "drift":
        return Drift(pts, window, drift=(0.8 * speed, 0.3 * speed), jitter_std=0.4 * speed, rng=rng)
    raise ValueError(f"unknown mobility model {name!r}; known: {', '.join(MOBILITY_MODELS)}")


def _mean_stretch(
    graph: GeometricGraph,
    n_pairs: int,
    min_euclidean: float,
    rng: np.random.Generator,
) -> float | None:
    """Mean Euclidean stretch over sampled largest-component pairs (None if none).

    A handful of Dijkstra sources serve several targets each, as in
    :func:`repro.core.stretch.measure_stretch`.
    """
    from repro.graphs.metrics import largest_component_nodes

    nodes = largest_component_nodes(graph)
    if len(nodes) < 2:
        return None
    n_sources = max(1, min(len(nodes), int(np.ceil(n_pairs / 4))))
    sources = rng.choice(nodes, size=n_sources, replace=False)
    dist = shortest_path_euclidean(graph, sources=sources)
    stretches: List[float] = []
    budget = n_pairs
    for row in range(n_sources):
        if budget <= 0:
            break
        targets = rng.choice(nodes, size=min(4, budget, len(nodes)), replace=False)
        for target in targets:
            if target == sources[row]:
                continue
            euclid = float(np.linalg.norm(graph.points[sources[row]] - graph.points[target]))
            if euclid < min_euclidean:
                continue
            graph_dist = float(dist[row, target])
            if not np.isfinite(graph_dist):
                continue
            stretches.append(graph_dist / euclid)
            budget -= 1
    if not stretches:
        return None
    return float(np.mean(stretches))


# ---------------------------------------------------------------------------
# M01 — mobility: churn and stretch over time
# ---------------------------------------------------------------------------
@register("M01")
def experiment_m01_mobility(
    intensity: float = 3.0,
    window_side: float = 15.0,
    radius: float = 1.0,
    model: str = "waypoint",
    speed: float = 0.15,
    n_steps: int = 30,
    dt: float = 1.0,
    n_pairs: int = 24,
    seed: int = 301,
) -> ExperimentResult:
    """Mobility: incremental topology churn and stretch over time.

    Parameters
    ----------
    intensity:
        Poisson deployment intensity (nodes per unit area).
    window_side:
        Side of the square deployment/movement window.
    radius:
        UDG connection radius (the radio range).
    model:
        Mobility model: ``waypoint``, ``walk`` or ``drift``.
    speed:
        Characteristic node speed (distance per unit time).
    n_steps, dt:
        Number of timeline steps and the step length.
    n_pairs:
        Stretch sample pairs per step.
    seed:
        Seed; deployment, mobility and pair sampling draw from independent
        child streams.
    """
    if intensity < 0 or window_side <= 0:
        raise ValueError("intensity must be >= 0 and window_side positive")
    if radius <= 0 or speed < 0:
        raise ValueError("radius must be positive and speed non-negative")
    if n_steps < 1 or dt <= 0:
        raise ValueError("n_steps must be >= 1 and dt positive")
    if model not in MOBILITY_MODELS:
        raise ValueError(f"unknown mobility model {model!r}; known: {', '.join(MOBILITY_MODELS)}")
    rng_deploy, rng_model, rng_sample = _spawn_rngs(seed, 3)
    window = Rect(0, 0, window_side, window_side)
    pts = poisson_points(window, intensity, rng_deploy)
    if len(pts) < 5:
        return ExperimentResult(
            experiment_id="M01",
            title="Mobility: topology churn and stretch over time",
            paper_reference="scenario extension (P2 stretch under mobility)",
            rows=[],
            headline={
                "mean_stretch": None,
                "total_edge_churn": None,
                "mean_lcc_fraction": None,
                "maintenance_consistent": None,
            },
            notes=[f"degenerate deployment ({len(pts)} nodes); nothing to measure"],
        )

    mobility = _make_model(model, pts, window, speed, rng_model)
    index = DynamicSpatialIndex(pts, radius=radius)
    tracker = TopologyTracker(index, radius)
    rows: List[Dict] = []
    stretch_means: List[float] = []
    lcc_values: List[float] = []
    total_churn = 0

    def handle(event, queue) -> None:
        nonlocal total_churn
        index.move(index.ids(), mobility.step(dt))
        diff = tracker.update()
        total_churn += diff.churn
        graph = tracker.graph()
        lcc = largest_component_fraction(graph)
        lcc_values.append(lcc)
        stretch = _mean_stretch(graph, n_pairs, min_euclidean=2 * radius, rng=rng_sample)
        if stretch is not None:
            stretch_means.append(stretch)
        rows.append(
            {
                "step": len(rows) + 1,
                "time": round(queue.now, 6),
                "n_edges": tracker.n_edges,
                "edges_added": diff.n_added,
                "edges_removed": diff.n_removed,
                "lcc_fraction": round(lcc, 4),
                "mean_stretch": round(stretch, 4) if stretch is not None else None,
            }
        )

    queue = EventQueue()
    queue.schedule_at_many(np.arange(1, n_steps + 1, dtype=np.float64) * dt, "step")
    queue.run(handle)

    return ExperimentResult(
        experiment_id="M01",
        title="Mobility: topology churn and stretch over time",
        paper_reference="scenario extension (P2 stretch under mobility)",
        rows=rows,
        headline={
            "mean_stretch": round(float(np.mean(stretch_means)), 4) if stretch_means else None,
            "total_edge_churn": int(total_churn),
            "mean_lcc_fraction": round(float(np.mean(lcc_values)), 4),
            "maintenance_consistent": bool(tracker.matches_recompute()),
        },
        notes=[
            f"{len(pts)} nodes, model={model}, incremental UDG maintenance on the "
            "patched grid index; stretch sampled over pairs at Euclidean "
            f"distance >= 2*radius inside the largest component.",
        ],
    )


# ---------------------------------------------------------------------------
# M02 — mobile distributed build: overlay repair under sparse motion
# ---------------------------------------------------------------------------
@register("M02")
def experiment_m02_mobile_distributed_build(
    intensity: float = 3.0,
    window_side: float = 15.0,
    move_fraction: float = 0.02,
    move_scale: float = 0.2,
    churn_count: int = 1,
    n_steps: int = 20,
    dt: float = 1.0,
    seed: int = 306,
) -> ExperimentResult:
    """Mobile distributed build: diff-driven overlay repair over time.

    A sparse fraction of the deployment moves each step (plus light churn);
    the :class:`~repro.distributed.repair.DistributedRepairEngine` keeps the
    Figure-7 overlay current from the same consumed dirty-id stream the UDG
    :class:`~repro.dynamics.topology.TopologyTracker` repairs edges from.

    Parameters
    ----------
    intensity, window_side:
        Poisson deployment on a square window.
    move_fraction:
        Fraction of alive nodes displaced per step (the sparse-motion regime).
    move_scale:
        Per-axis displacement rms of one move, as a fraction of the UDG
        connection radius.
    churn_count:
        Nodes failing + arriving per step (0 disables churn).
    n_steps, dt:
        Number of timeline steps and the step length.
    seed:
        Seed; deployment and motion/churn draw from independent child streams.
    """
    if intensity < 0 or window_side <= 0:
        raise ValueError("intensity must be >= 0 and window_side positive")
    if not 0 < move_fraction <= 1 or move_scale <= 0:
        raise ValueError("move_fraction must lie in (0, 1] and move_scale be positive")
    if churn_count < 0:
        raise ValueError("churn_count must be non-negative")
    if n_steps < 1 or dt <= 0:
        raise ValueError("n_steps must be >= 1 and dt positive")
    spec = UDGTileSpec.default()
    radius = spec.connection_radius
    rng_deploy, rng_motion = _spawn_rngs(seed, 2)
    window = Rect(0, 0, window_side, window_side)
    pts = poisson_points(window, intensity, rng_deploy)
    if len(pts) < 5:
        return ExperimentResult(
            experiment_id="M02",
            title="Mobile distributed build: diff-driven overlay repair",
            paper_reference="Figure 7 construction under mobility (repair engine)",
            rows=[],
            headline={
                "repair_consistent": None,
                "total_overlay_churn": None,
                "repair_messages_total": None,
                "rebuild_messages_per_step": None,
                "mean_good_fraction": None,
            },
            notes=[f"degenerate deployment ({len(pts)} nodes); nothing to measure"],
        )

    index = DynamicSpatialIndex(pts, radius=radius)
    tracker = TopologyTracker(index, radius)
    engine = DistributedRepairEngine(index, spec, window)
    initial_messages = engine.stats.messages_sent

    rows: List[Dict] = []
    good_fractions: List[float] = []
    total_overlay_churn = 0
    n_tiles = max(1, engine.tiling.n_tiles)
    previous_edges = {(int(a), int(b)) for a, b in engine.result().edges}

    def handle(event, queue) -> None:
        nonlocal previous_edges, total_overlay_churn
        n_alive = len(index)
        n_move = max(1, int(round(move_fraction * n_alive)))
        movers = np.sort(rng_motion.choice(index.ids(), size=n_move, replace=False))
        displaced = index.id_positions()[movers] + rng_motion.normal(
            0, move_scale * radius, size=(n_move, 2)
        )
        index.move(movers, reflect_into(displaced, window))
        if churn_count and n_alive > churn_count + 2:
            index.delete(np.sort(rng_motion.choice(index.ids(), size=churn_count, replace=False)))
            index.insert(window.sample_uniform(churn_count, rng_motion))
        # One consumed stream feeds both incremental consumers.
        dirty, deleted = index.consume_dirty()
        diff = tracker.update(dirty=dirty, deleted=deleted)
        report = engine.update(dirty=dirty, deleted=deleted)
        result = engine.result()
        edges = {(int(a), int(b)) for a, b in result.edges}
        overlay_churn = len(edges ^ previous_edges)
        previous_edges = edges
        total_overlay_churn += overlay_churn
        good_fractions.append(len(result.good_tiles) / n_tiles)
        rows.append(
            {
                "step": len(rows) + 1,
                "time": round(queue.now, 6),
                "n_alive": len(index),
                "dirty_tiles": report.dirty_tiles,
                "changed_tiles": report.changed_tiles,
                "respliced_pairs": report.respliced_pairs,
                "repair_messages": report.messages,
                "n_good_tiles": len(result.good_tiles),
                "n_overlay_edges": len(edges),
                "overlay_churn": overlay_churn,
                "udg_edge_churn": diff.churn,
            }
        )

    queue = EventQueue()
    queue.schedule_at_many(np.arange(1, n_steps + 1, dtype=np.float64) * dt, "step")
    queue.run(handle)

    # Deterministic consistency certificate: the spliced overlay equals a
    # from-scratch distributed build over the final surviving positions
    # (precomputed here because its message bill feeds the headline too).
    scratch = distributed_build(index.positions(), spec, window)
    repair_consistent = engine.matches_rebuild(scratch)

    return ExperimentResult(
        experiment_id="M02",
        title="Mobile distributed build: diff-driven overlay repair",
        paper_reference="Figure 7 construction under mobility (repair engine)",
        rows=rows,
        headline={
            "repair_consistent": bool(repair_consistent),
            "total_overlay_churn": int(total_overlay_churn),
            "repair_messages_total": int(engine.stats.messages_sent - initial_messages),
            "rebuild_messages_per_step": int(scratch.stats.messages_sent),
            "mean_good_fraction": round(float(np.mean(good_fractions)), 4),
        },
        notes=[
            f"{len(pts)} nodes, {move_fraction:.0%} moving per step "
            f"(rms {move_scale:g}·radius), churn {churn_count}/step; the repair "
            "engine and the UDG tracker share one consumed dirty-id stream.  "
            "repair_messages_total counts the whole timeline; a rebuild would pay "
            "rebuild_messages_per_step on every one of the "
            f"{n_steps} steps.",
        ],
    )


# ---------------------------------------------------------------------------
# F01 — failure: coverage and connectivity decay
# ---------------------------------------------------------------------------
@register("F01")
def experiment_f01_failure(
    intensity: float = 6.0,
    window_side: float = 12.0,
    radius: float = 1.0,
    sensing_radius: float = 1.0,
    mean_lifetime: float = 20.0,
    outage_rate: float = 0.0,
    outage_radius: float = 2.0,
    horizon: float = 30.0,
    observe_every: float = 3.0,
    n_events: int = 400,
    coverage_target: float = 0.9,
    seed: int = 302,
) -> ExperimentResult:
    """Node failure: coverage and connectivity decay over time.

    Parameters
    ----------
    intensity, window_side:
        Poisson deployment on a square window.
    radius:
        UDG connection radius for the connectivity track.
    sensing_radius:
        Event-detection radius for the coverage track.
    mean_lifetime:
        Mean exponential node lifetime.
    outage_rate, outage_radius:
        Rate and radius of spatially correlated outage discs (0 disables).
    horizon, observe_every:
        Simulated time span and observation cadence.
    n_events:
        Monte-Carlo event positions for the coverage estimate (drawn once, so
        successive observations measure decay on the same event set).
    coverage_target:
        Threshold for the time-to-coverage-loss headline.
    seed:
        Seed; deployment, churn and events draw from independent streams.
    """
    if intensity < 0 or window_side <= 0:
        raise ValueError("intensity must be >= 0 and window_side positive")
    if radius <= 0 or sensing_radius <= 0:
        raise ValueError("radius and sensing_radius must be positive")
    if horizon <= 0 or observe_every <= 0:
        raise ValueError("horizon and observe_every must be positive")
    if not 0.0 < coverage_target <= 1.0:
        raise ValueError("coverage_target must lie in (0, 1]")
    if n_events < 1:
        raise ValueError("n_events must be positive")
    rng_deploy, rng_churn, rng_events = _spawn_rngs(seed, 3)
    window = Rect(0, 0, window_side, window_side)
    pts = poisson_points(window, intensity, rng_deploy)
    if len(pts) < 2:
        return ExperimentResult(
            experiment_id="F01",
            title="Node failure: coverage and connectivity decay",
            paper_reference="scenario extension (P3 coverage under churn)",
            rows=[],
            headline={
                "final_coverage": None,
                "final_lcc_fraction": None,
                "time_to_coverage_loss": None,
                "n_failed": None,
            },
            notes=[f"degenerate deployment ({len(pts)} nodes); nothing to measure"],
        )

    churn = LifetimeChurn(mean_lifetime)
    lifetimes = churn.failure_times(len(pts), rng_churn)
    events = window.sample_uniform(n_events, rng_events)
    index = DynamicSpatialIndex(pts, radius=radius)
    tracker = TopologyTracker(index, radius)

    rows: List[Dict] = []
    time_to_loss: List[float] = []
    n_failed = 0

    def handle(event, queue) -> None:
        nonlocal n_failed
        if event.kind == "fail":
            node = int(event.payload)
            if index.is_alive(node):
                index.delete([node])
                n_failed += 1
            return
        if event.kind == "outage":
            center = np.asarray(event.payload, dtype=np.float64)
            alive = index.ids()
            hit = alive[within_ball(index.positions(), center, outage_radius)]
            if hit.size:
                index.delete(hit)
                n_failed += len(hit)
            return
        # observation
        tracker.update()
        coverage = (
            coverage_fraction(index.positions(), events, sensing_radius)
            if len(index)
            else 0.0
        )
        lcc = largest_component_fraction(tracker.graph()) if len(index) else 0.0
        if coverage < coverage_target and not time_to_loss:
            time_to_loss.append(queue.now)
        rows.append(
            {
                "time": round(queue.now, 6),
                "n_alive": len(index),
                "n_failed": n_failed,
                "coverage": round(coverage, 4),
                "lcc_fraction": round(lcc, 4),
                "n_edges": tracker.n_edges,
            }
        )

    queue = EventQueue()
    for node, lifetime in enumerate(lifetimes):
        if lifetime <= horizon:
            queue.schedule_at(float(lifetime), "fail", node)
    if outage_rate > 0:
        outage = CorrelatedOutage(outage_rate, outage_radius)
        times, centers = outage.outages(horizon, window, rng_churn)
        for t, center in zip(times, centers):
            queue.schedule_at(float(t), "outage", (float(center[0]), float(center[1])))
    n_obs = int(np.floor(horizon / observe_every))
    queue.schedule_at_many(
        np.arange(1, n_obs + 1, dtype=np.float64) * observe_every, "observe"
    )
    queue.run(handle)

    final = rows[-1] if rows else {}
    return ExperimentResult(
        experiment_id="F01",
        title="Node failure: coverage and connectivity decay",
        paper_reference="scenario extension (P3 coverage under churn)",
        rows=rows,
        headline={
            "final_coverage": final.get("coverage"),
            "final_lcc_fraction": final.get("lcc_fraction"),
            "time_to_coverage_loss": round(time_to_loss[0], 6) if time_to_loss else None,
            "n_failed": n_failed,
        },
        notes=[
            f"{len(pts)} nodes, mean lifetime {mean_lifetime:g}, "
            + (
                f"correlated outages at rate {outage_rate:g} (radius {outage_radius:g}); "
                if outage_rate > 0
                else "no correlated outages; "
            )
            + "coverage is measured against one fixed Monte-Carlo event set.",
        ],
    )


# ---------------------------------------------------------------------------
# H01 — heterogeneous radio ranges under decay
# ---------------------------------------------------------------------------
@register("H01")
def experiment_h01_heterogeneous(
    intensity: float = 6.0,
    window_side: float = 12.0,
    base_radius: float = 1.0,
    spread: float = 0.4,
    distribution: str = "uniform",
    decay_rate: float = 0.02,
    decay_spread: float = 0.5,
    n_steps: int = 20,
    dt: float = 1.0,
    backend: str = "grid",
    seed: int = 303,
) -> ExperimentResult:
    """Heterogeneous radio ranges: bidirectional vs union connectivity under decay.

    Parameters
    ----------
    intensity, window_side:
        Poisson deployment on a square window.
    base_radius, spread, distribution:
        Initial per-node radii via :func:`repro.dynamics.churn.heterogeneous_radii`.
    decay_rate, decay_spread:
        Mean exponential radius decay per unit time and its per-node
        heterogeneity (each node decays at ``decay_rate · U(1−s, 1+s)``).
    n_steps, dt:
        Timeline length and step size.
    backend:
        Spatial-index backend for the one-off candidate-pair enumeration.
    seed:
        Seed; deployment and radio draws use independent streams.
    """
    if intensity < 0 or window_side <= 0:
        raise ValueError("intensity must be >= 0 and window_side positive")
    if decay_rate < 0 or not 0.0 <= decay_spread < 1.0:
        raise ValueError("decay_rate must be >= 0 and decay_spread in [0, 1)")
    if n_steps < 1 or dt <= 0:
        raise ValueError("n_steps must be >= 1 and dt positive")
    rng_deploy, rng_radio = _spawn_rngs(seed, 2)
    window = Rect(0, 0, window_side, window_side)
    pts = poisson_points(window, intensity, rng_deploy)
    if len(pts) < 2:
        return ExperimentResult(
            experiment_id="H01",
            title="Heterogeneous radio ranges: connectivity under decay",
            paper_reference="scenario extension (heterogeneous UDG(2, λ))",
            rows=[],
            headline={
                "initial_lcc_bidirectional": None,
                "final_lcc_bidirectional": None,
                "mean_asymmetry_gap": None,
                "time_to_partition": None,
            },
            notes=[f"degenerate deployment ({len(pts)} nodes); nothing to measure"],
        )

    radii = heterogeneous_radii(len(pts), base_radius, spread, rng_radio, distribution)
    rates = decay_rate * rng_radio.uniform(1.0 - decay_spread, 1.0 + decay_spread, size=len(pts))
    # Radii only shrink, so the initial maximum bounds every later link:
    # enumerate candidate pairs once and re-filter per step.
    r_max = float(radii.max())
    pairs = build_index(pts, radius=r_max, backend=backend).query_pairs(r_max)
    diffs = pts[pairs[:, 0]] - pts[pairs[:, 1]] if len(pairs) else np.zeros((0, 2))
    dists = np.hypot(diffs[:, 0], diffs[:, 1])

    rows: List[Dict] = []
    gaps: List[float] = []
    partition_time: List[float] = []

    def observe(now: float, step: int) -> None:
        r_i, r_j = radii[pairs[:, 0]], radii[pairs[:, 1]]
        sym_edges = pairs[dists <= np.minimum(r_i, r_j)] if len(pairs) else pairs
        union_edges = pairs[dists <= np.maximum(r_i, r_j)] if len(pairs) else pairs
        lcc_sym = largest_component_fraction(GeometricGraph(pts, sym_edges))
        lcc_union = largest_component_fraction(GeometricGraph(pts, union_edges))
        gaps.append(lcc_union - lcc_sym)
        if lcc_sym < 0.5 and not partition_time:
            partition_time.append(now)
        rows.append(
            {
                "step": step,
                "time": round(now, 6),
                "mean_radius": round(float(radii.mean()), 4),
                "n_edges_bidirectional": len(sym_edges),
                "n_edges_union": len(union_edges),
                "lcc_bidirectional": round(lcc_sym, 4),
                "lcc_union": round(lcc_union, 4),
            }
        )

    observe(0.0, 0)
    initial_lcc = rows[0]["lcc_bidirectional"]

    def handle(event, queue) -> None:
        nonlocal radii
        radii = radii * np.exp(-rates * dt)
        observe(queue.now, len(rows))

    queue = EventQueue()
    queue.schedule_at_many(np.arange(1, n_steps + 1, dtype=np.float64) * dt, "decay")
    queue.run(handle)

    return ExperimentResult(
        experiment_id="H01",
        title="Heterogeneous radio ranges: connectivity under decay",
        paper_reference="scenario extension (heterogeneous UDG(2, λ))",
        rows=rows,
        headline={
            "initial_lcc_bidirectional": initial_lcc,
            "final_lcc_bidirectional": rows[-1]["lcc_bidirectional"],
            "mean_asymmetry_gap": round(float(np.mean(gaps)), 4),
            "time_to_partition": round(partition_time[0], 6) if partition_time else None,
        },
        notes=[
            f"{len(pts)} nodes, {distribution} radius spread {spread:g} around "
            f"{base_radius:g}, heterogeneous exponential decay (mean rate {decay_rate:g}); "
            "bidirectional links need d <= min(r_i, r_j), union links d <= max.",
        ],
    )
