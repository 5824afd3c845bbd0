"""Span tracing from outside the program: wrap public calls, keep aggregates.

:class:`Tracer` replaces a public function or method with a wrapper that
times the call and subtracts the time its wrapped children took, so every
span name accumulates both a total and a *self* time.  Nothing under
``src/`` knows about it: :func:`install` patches the class attributes and
every module attribute that holds the original function object (modules
import names like ``classify_tiles`` directly, so patching the defining
module alone would miss those call sites).

Hooks see each call's arguments and result and record the layer counts
(edges built, tiles classified, dirty ids per tick ...) where the work
happens.  Spans are kept as in-memory aggregates and read out when the run
ends.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "install"]

Hook = Callable[["Tracer", tuple, dict, Any, int], None]


class Span:
    """Aggregate of every call recorded under one name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span stack + per-name aggregates + named counters and samples.

    ``children[(parent, child)]`` accumulates the total time of ``child``
    spans entered directly inside a ``parent`` span, so a span's total can
    be checked against its children plus its self time.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self.children: Dict[tuple, int] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        #: Free-form state hooks share (e.g. receipt times keyed by seq).
        self.state: Dict[str, Any] = {}
        self._stack: List[list] = []
        self._restore: List[tuple] = []

    # -- recording ------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        stack = self._stack
        spans = self.spans
        children = self.children
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += total
                    key = (parent[1], name)
                    children[key] = children.get(key, 0) + total
                span = spans.get(name)
                if span is None:
                    span = spans[name] = Span()
                span.calls += 1
                span.total_ns += total
                span.self_ns += total - frame[0]
            if hook is not None:
                hook(self, args, kwargs, result, total)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_method(self, cls: type, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, hook))
        self._restore.append((cls, attr, original))

    def patch_function(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> None:
        """Replace ``fn`` in every loaded module that binds it by name."""
        traced = self.wrap(fn, name, hook)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready copy of the aggregates (and the kernel profiler's)."""
        profiler = self.state.get("profiler")
        return {
            "spans": {k: [s.calls, s.total_ns, s.self_ns] for k, s in self.spans.items()},
            "children": {f"{p}>{c}": ns for (p, c), ns in self.children.items()},
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "kernels": profiler.snapshot() if profiler is not None else {},
        }


# ---------------------------------------------------------------------------
# Hooks: counts recorded at the layer boundary where the work happens.
# ---------------------------------------------------------------------------
def _graph_edges(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tr.count("graphs.edges", result.n_edges)


def _classified(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    records = result.records
    tr.count("core.goodness.tiles", len(records))
    tr.count("core.goodness.good", sum(1 for r in records.values() if r.good))


def _routed(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tr.count("routing.route_on_overlay.success", int(result.success))
    if result.success:
        tr.count("routing.mesh.probes", result.mesh_result.probes)
        tr.count("routing.mesh.hops", result.mesh_result.hops)


def _handled(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    now = time.perf_counter_ns()
    tr.state.setdefault("window_start_ns", now - ns)
    if result.event is not None:
        tr.state.setdefault("receipt_ns", {})[result.event.seq] = now - ns
    elif '"stats"' in args[1] and "window" not in tr.state:
        # The load generator sends ``stats`` when its timed window closes:
        # freeze the serving aggregates there, before the verification
        # queries (digest, snapshot) run.
        tr.state["window"] = tr.snapshot()
        tr.state["window"]["window_ns"] = now - tr.state["window_start_ns"]


def _drained(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    if not result:
        return
    now = time.perf_counter_ns()
    receipts = tr.state.get("receipt_ns", {})
    for event in result:
        received = receipts.pop(event.seq, None)
        if received is not None:
            tr.sample("serve.batching.wait_ms", (now - received) / 1e6)
    tr.sample("serve.batching.drained", len(result))


def _coalesced(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tr.count("serve.batching.events", result.n_events)
    tr.count("serve.batching.operations", result.n_operations)


def _consumed(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tr.count("dynamics.incremental.dirty", len(result[0]))


def _topology(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tracker = args[0]
    tr.count("dynamics.topology.churn", result.churn)
    tr.count("dynamics.topology.edges", tracker.n_edges)


def _repaired(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tr.count("distributed.repair.dirty_tiles", result.dirty_tiles)
    tr.count("distributed.repair.changed_tiles", result.changed_tiles)
    tr.count("distributed.repair.messages", result.messages)


def _route_query(tr: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    world = args[0]
    if tr.state.get("route_seq") != world.applied_seq:
        tr.count("serve.world.route.adjacency_rebuilds")
        tr.state["route_seq"] = world.applied_seq


def install(tracer: Tracer) -> Tracer:
    """Wrap the public calls of every layer the benchmark attributes."""
    from repro.core import coverage, goodness, overlay, stretch
    from repro.core.nn_sens import build_nn_sens
    from repro.core.udg_sens import build_udg_sens
    from repro.distributed.repair import DistributedRepairEngine
    from repro.dynamics.incremental import DynamicSpatialIndex
    from repro.dynamics.topology import TopologyTracker
    from repro.geometry.index import GridIndex, KDTreeIndex
    from repro.graphs.knn import build_knn
    from repro.graphs.udg import build_udg
    from repro.routing.overlay import route_on_overlay
    from repro.serve import batching, protocol, server, world

    tr = tracer
    for cls in (GridIndex, KDTreeIndex):
        tr.patch_method(cls, "query_pairs", "geometry.index.query_pairs")
        tr.patch_method(cls, "query_nearest", "geometry.index.query_nearest")
    tr.patch_function(build_udg, "graphs.build_udg", _graph_edges)
    tr.patch_function(build_knn, "graphs.build_knn", _graph_edges)
    tr.patch_function(goodness.classify_tiles, "core.goodness.classify_tiles", _classified)
    tr.patch_function(overlay.build_overlay, "core.overlay.build_overlay")
    tr.patch_method(overlay.OverlayGraph, "largest_component", "core.overlay.largest_component")
    tr.patch_function(build_udg_sens, "core.sens.build")
    tr.patch_function(build_nn_sens, "core.sens.build")
    tr.patch_function(stretch.measure_stretch, "core.stretch.measure_stretch")
    tr.patch_function(coverage.measure_coverage, "core.coverage.measure_coverage")
    tr.patch_function(route_on_overlay, "routing.route_on_overlay", _routed)

    tr.patch_function(protocol.parse_line, "serve.protocol.parse")
    tr.patch_function(protocol.ok_response, "serve.protocol.encode")
    tr.patch_function(protocol.error_response, "serve.protocol.encode")
    tr.patch_function(batching.coalesce_events, "serve.batching.coalesce", _coalesced)
    tr.patch_method(batching.TickBatcher, "drain", "serve.batching.drain", _drained)
    tr.patch_method(server.ServeSession, "flush", "serve.server.flush")
    tr.patch_method(server.ServeSession, "handle_line", "serve.server.handle_line", _handled)
    for op in ("move", "insert", "delete", "neighbours_of"):
        tr.patch_method(DynamicSpatialIndex, op, f"dynamics.incremental.{op}")
    tr.patch_method(
        DynamicSpatialIndex, "consume_dirty", "dynamics.incremental.consume_dirty", _consumed
    )
    tr.patch_method(TopologyTracker, "update", "dynamics.topology.update", _topology)
    tr.patch_method(DistributedRepairEngine, "update", "distributed.repair.update", _repaired)
    tr.patch_method(world.LiveWorld, "route", "serve.world.route", _route_query)
    tr.patch_method(world.LiveWorld, "neighbours", "serve.world.neighbours")
    tr.patch_method(world.LiveWorld, "coverage", "serve.world.coverage")
    tr.patch_method(world.LiveWorld, "apply", "serve.world.apply")
    tr.patch_method(world.LiveWorld, "digest", "serve.world.digest")
    tr.patch_method(DynamicSpatialIndex, "__init__", "serve.world.setup.index")
    tr.patch_method(TopologyTracker, "__init__", "serve.world.setup.tracker")
    tr.patch_method(DistributedRepairEngine, "__init__", "serve.world.setup.engine")
    return tr
