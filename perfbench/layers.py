"""Per-layer metrics: how each is read off a trace.

A trace snapshot (:meth:`perfbench.trace.Tracer.snapshot`) holds raw span
aggregates and counts.  :func:`layer_metrics` turns one into the named
per-layer metrics of ``BENCHMARK.json``, normalised per unit of work: per
pipeline pass on the pipeline workload, per applied tick (or per call,
where the name says so) on the serve workload.  A layer a workload does
not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict

__all__ = ["KERNELS", "children_ms", "layer_metrics", "self_ms_by_layer"]

#: Kernels of ``repro.kernels.ops`` the profiler reports on.
KERNELS = (
    "cell_gather",
    "within_ball_mask",
    "count_in_balls",
    "pair_candidates",
    "splice_edges",
    "step_events",
)

#: Span name -> layer, for the self-time attribution table.
LAYER_OF = {
    "geometry.index.query_pairs": "geometry.index",
    "geometry.index.query_nearest": "geometry.index",
    "graphs.build_udg": "graphs",
    "graphs.build_knn": "graphs",
    "core.goodness.classify_tiles": "core.goodness",
    "core.overlay.build_overlay": "core.overlay",
    "core.overlay.largest_component": "core.overlay",
    "core.sens.build": "core.sens",
    "core.stretch.measure_stretch": "core.stretch",
    "core.coverage.measure_coverage": "core.coverage",
    "routing.route_on_overlay": "routing",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_ms_by_layer(snap: Dict[str, Any]) -> Dict[str, float]:
    """Self time (ms) summed per layer over every span in ``snap``."""
    out: Dict[str, float] = {}
    for name, (_, _, self_ns) in snap["spans"].items():
        layer = LAYER_OF.get(name, name)
        out[layer] = out.get(layer, 0.0) + self_ns / 1e6
    return out


def layer_metrics(snap: Dict[str, Any], units: int) -> Dict[str, float]:
    """The span/count-derived per-layer metrics, ``units`` passes or ticks.

    ``units`` divides the pipeline and kernel totals (passes on a pipeline
    workload); the serve metrics divide by the applied ticks in ``snap``.
    """
    spans, counts, samples = snap["spans"], snap["counts"], snap["samples"]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0, 0))[0]

    def ms(name: str) -> float:
        return spans.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(name: str) -> float:
        return spans.get(name, (0, 0, 0))[2] / 1e6

    def count(name: str) -> float:
        return counts.get(name, 0)

    def per_call_ms(name: str) -> float:
        return _ratio(ms(name), calls(name))

    ticks = calls("serve.server.flush")
    m: Dict[str, float] = {
        "geometry.index.query_pairs.ms": _ratio(ms("geometry.index.query_pairs"), units),
        "geometry.index.query_pairs.calls": _ratio(calls("geometry.index.query_pairs"), units),
        "geometry.index.query_nearest.ms": _ratio(ms("geometry.index.query_nearest"), units),
        "geometry.index.query_nearest.calls": _ratio(calls("geometry.index.query_nearest"), units),
        "graphs.build_udg.self_ms": _ratio(self_ms("graphs.build_udg"), units),
        "graphs.build_knn.self_ms": _ratio(self_ms("graphs.build_knn"), units),
        "graphs.edges": _ratio(count("graphs.edges"), units),
        "core.goodness.classify_tiles.ms": _ratio(ms("core.goodness.classify_tiles"), units),
        "core.goodness.tiles": _ratio(count("core.goodness.tiles"), units),
        "core.goodness.good_frac": _ratio(count("core.goodness.good"), count("core.goodness.tiles")),
        "core.overlay.build_overlay.ms": _ratio(ms("core.overlay.build_overlay"), units),
        "core.overlay.largest_component.ms": _ratio(ms("core.overlay.largest_component"), units),
        "core.sens.build.self_ms": _ratio(self_ms("core.sens.build"), units),
        "core.stretch.measure_stretch.ms": _ratio(ms("core.stretch.measure_stretch"), units),
        "core.coverage.measure_coverage.ms": _ratio(ms("core.coverage.measure_coverage"), units),
        "routing.route_on_overlay.ms": _ratio(ms("routing.route_on_overlay"), units),
        "routing.route_on_overlay.success_frac": _ratio(
            count("routing.route_on_overlay.success"), calls("routing.route_on_overlay")
        ),
        "routing.mesh.probes_per_hop": _ratio(count("routing.mesh.probes"), count("routing.mesh.hops")),
    }
    for kernel in KERNELS:
        stats = snap["kernels"].get(kernel, {"calls": 0, "ns": 0, "nbytes": 0})
        m[f"kernels.{kernel}.calls"] = _ratio(stats["calls"], units)
        m[f"kernels.{kernel}.ms"] = _ratio(stats["ns"] / 1e6, units)
        m[f"kernels.{kernel}.bytes"] = _ratio(stats["nbytes"], units)

    waits = samples.get("serve.batching.wait_ms", [])
    drained = samples.get("serve.batching.drained", [])
    window_ms = snap.get("window_ns", 0) / 1e6
    m.update(
        {
            "serve.protocol.parse.us": 1e3 * per_call_ms("serve.protocol.parse"),
            "serve.protocol.parse.calls": calls("serve.protocol.parse"),
            "serve.protocol.encode.us": 1e3 * per_call_ms("serve.protocol.encode"),
            "serve.protocol.encode.calls": calls("serve.protocol.encode"),
            "serve.batching.events_per_tick": _ratio(count("serve.batching.events"), ticks),
            "serve.batching.coalesce_ratio": _ratio(
                count("serve.batching.operations"), count("serve.batching.events")
            ),
            "serve.batching.wait_ms_p50": statistics.median(waits) if waits else 0.0,
            "serve.batching.backlog_max": max(drained, default=0),
            "serve.server.flush.ms_per_tick": _ratio(ms("serve.server.flush"), ticks),
            "serve.server.flush.self_ms_per_tick": _ratio(self_ms("serve.server.flush"), ticks),
            "serve.server.ticks": ticks,
            "serve.server.busy_frac": _ratio(
                ms("serve.server.handle_line") + ms("serve.server.flush"), window_ms
            ),
            "serve.server.transport_self_ms": _ratio(
                self_ms("serve.server.handle_line"), calls("serve.server.handle_line")
            ),
        }
    )
    for op in ("move", "insert", "delete", "consume_dirty", "neighbours_of"):
        m[f"dynamics.incremental.{op}.ms_per_tick"] = _ratio(ms(f"dynamics.incremental.{op}"), ticks)
    m.update(
        {
            "dynamics.incremental.dirty_per_tick": _ratio(count("dynamics.incremental.dirty"), ticks),
            "dynamics.topology.update.ms_per_tick": _ratio(ms("dynamics.topology.update"), ticks),
            "dynamics.topology.churn_frac": _ratio(
                count("dynamics.topology.churn"), count("dynamics.topology.edges")
            ),
            "distributed.repair.update.ms_per_tick": _ratio(ms("distributed.repair.update"), ticks),
            "distributed.repair.changed_over_dirty": _ratio(
                count("distributed.repair.changed_tiles"), count("distributed.repair.dirty_tiles")
            ),
            "distributed.repair.messages_per_tick": _ratio(
                count("distributed.repair.messages"), ticks
            ),
            "serve.world.route.ms": per_call_ms("serve.world.route"),
            "serve.world.route.adjacency_rebuilds": count("serve.world.route.adjacency_rebuilds"),
            "serve.world.neighbours.ms": per_call_ms("serve.world.neighbours"),
            "serve.world.coverage.ms": per_call_ms("serve.world.coverage"),
            "serve.world.setup.index_ms": ms("serve.world.setup.index"),
            "serve.world.setup.tracker_ms": ms("serve.world.setup.tracker"),
            "serve.world.setup.engine_ms": ms("serve.world.setup.engine"),
            "serve.world.digest.ms": per_call_ms("serve.world.digest"),
        }
    )
    return m


def children_ms(snap: Dict[str, Any], parent: str) -> float:
    """Total ms of the wrapped spans entered directly inside ``parent``."""
    prefix = parent + ">"
    return sum(ns for key, ns in snap["children"].items() if key.startswith(prefix)) / 1e6
