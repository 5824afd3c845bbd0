"""Target tracking over a *mobile* sensor field (the dynamics subsystem demo).

The static examples freeze the deployment; here the sensors themselves drift
(random-waypoint mobility) while a target crosses the field.  A
``DynamicSpatialIndex`` absorbs every step as in-place moves, a
``TopologyTracker`` repairs the UDG edge set incrementally, and detection
queries run against the *current* positions — no structure is ever rebuilt
from scratch, and the final state is checked byte-identical to a rebuild.

Run with::

    PYTHONPATH=src python examples/mobility_tracking.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.tiles_udg import UDGTileSpec
from repro.distributed import DistributedRepairEngine
from repro.dynamics import DynamicSpatialIndex, RandomWaypoint, TopologyTracker
from repro.geometry.index import build_index
from repro.geometry.poisson import poisson_points
from repro.geometry.primitives import Rect
from repro.graphs.metrics import largest_component_nodes
from repro.simulation.sensing import MovingTarget

SEED = 11
INTENSITY = 3.0
SIDE = 16.0
RADIO_RANGE = 1.0
SENSING_RADIUS = 2.0
NODE_SPEED = 0.12
N_STEPS = 40


def main() -> None:
    rng = np.random.default_rng(SEED)
    window = Rect(0, 0, SIDE, SIDE)
    pts = poisson_points(window, INTENSITY, rng)
    print(f"Deployed {len(pts)} mobile sensors on a {SIDE:g} x {SIDE:g} field "
          f"(radio range {RADIO_RANGE:g}, sensing radius {SENSING_RADIUS:g})")

    mobility = RandomWaypoint(pts, window, speed_range=(0.5 * NODE_SPEED, 1.5 * NODE_SPEED), rng=rng)
    index = DynamicSpatialIndex(pts, radius=RADIO_RANGE)
    tracker = TopologyTracker(index, RADIO_RANGE)
    target = MovingTarget(
        np.array([[0.1 * SIDE, 0.2 * SIDE], [0.9 * SIDE, 0.4 * SIDE], [0.3 * SIDE, 0.9 * SIDE]]),
        speed=SIDE / N_STEPS * 1.8,
    )

    rows = []
    detected, connected_detections, total_churn = 0, 0, 0
    for step, position in enumerate(target.positions()):
        if step >= N_STEPS:
            break
        index.move(index.ids(), mobility.step(1.0))
        diff = tracker.update()
        total_churn += diff.churn
        detectors = index.query_radius(position, SENSING_RADIUS)
        graph = tracker.graph()
        lcc_ids = index.ids()[largest_component_nodes(graph)]
        in_lcc = np.intersect1d(detectors, lcc_ids)
        detected += bool(len(detectors))
        connected_detections += bool(len(in_lcc))
        if step % 5 == 0:
            rows.append(
                {
                    "step": step,
                    "edges": tracker.n_edges,
                    "edge_churn": diff.churn,
                    "detectors": len(detectors),
                    "connected_detectors": len(in_lcc),
                }
            )

    print(format_table(rows, title="\nSampled timeline (mobile sensors, moving target)"))
    print("\n== Summary ==")
    print(f"  steps simulated                 : {N_STEPS}")
    print(f"  target detected                 : {detected / N_STEPS:.1%} of steps")
    print(f"  detected by a *connected* node  : {connected_detections / N_STEPS:.1%} of steps")
    print(f"  total edge churn                : {total_churn} "
          f"({total_churn / N_STEPS:.1f} edge changes/step, repaired incrementally)")
    print(f"  index maintenance               : {index.stats}")

    rebuilt = build_index(index.positions(), radius=RADIO_RANGE, backend="grid")
    ids = index.ids()
    consistent = all(
        np.array_equal(a, ids[b])
        for a, b in zip(index.neighbour_lists(RADIO_RANGE), rebuilt.neighbour_lists(RADIO_RANGE))
    ) and tracker.matches_recompute()
    print(f"  incremental state == rebuild    : {consistent}")
    print(
        "\nEvery step moved every sensor, yet only boundary-crossing nodes touched the index\n"
        "and only dirty neighbourhoods were re-queried for edges - the same answers as a\n"
        "rebuild-per-step at a fraction of the work (see the registered S02 benchmark)."
    )

    # -- Overlay repair vs rebuild (the distributed construction) -------------
    # Now keep the Figure-7 overlay itself current while a sparse fraction of
    # the field keeps moving: the repair engine re-elects only the tiles each
    # diff touched instead of re-running the whole construction.
    print("\n== Overlay repair vs rebuild (sparse motion, Figure-7 construction) ==")
    spec = UDGTileSpec.default()
    engine = DistributedRepairEngine(index, spec, window)
    full_messages = engine.stats.messages_sent
    repair_messages = dirty_tiles_total = 0
    repair_steps = 10
    for _ in range(repair_steps):
        movers = np.sort(rng.choice(index.ids(), size=max(1, len(index) // 100), replace=False))
        index.move(movers, index.id_positions()[movers] + rng.normal(0, 0.2, (len(movers), 2)))
        dirty, deleted = index.consume_dirty()   # one stream feeds both consumers
        tracker.update(dirty=dirty, deleted=deleted)
        report = engine.update(dirty=dirty, deleted=deleted)
        repair_messages += report.messages
        dirty_tiles_total += report.dirty_tiles
    overlay_consistent = engine.matches_rebuild()
    print(f"  steps repaired                  : {repair_steps} (1% of sensors moving per step)")
    print(f"  tiles re-examined               : {dirty_tiles_total} of "
          f"{engine.tiling.n_tiles * repair_steps} tile-steps")
    print(f"  repair protocol messages        : {repair_messages} total "
          f"(one full build costs {full_messages})")
    print(f"  spliced overlay == full rebuild : {overlay_consistent}")
    print(
        "\nA rebuild-per-step would have paid the full message bill every step; the repair\n"
        "engine paid it once and then only for the dirty tiles (see the S03 benchmark and\n"
        "the M02 workload for the measured gap)."
    )


if __name__ == "__main__":
    main()
