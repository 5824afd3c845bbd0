"""S05 — serving-daemon latency/throughput under a mobility storm.

Drives a :class:`~repro.serve.server.ServeSession` (the transport-agnostic
daemon core: bounded batcher, coalescer, live world, latency recorder)
through a seeded mobility storm — per tick a burst of moves with duplicate
re-reports, light insert/delete churn, same-tick move-after-delete
conflicts and periodic empty ticks — and measures the serving pipeline
end to end: request-line parse → ingest stamp → coalesce → bulk apply
through the shared dirty-id stream → reply.

Two certificates ride along:

* **serve-matches-batch** — the storm is replayed *sequentially* (one
  event per tick, no coalescing) into a reference world; the maintained
  structures (:func:`~repro.serve.world.world_digest_parts`: alive ids,
  positions, UDG edges, spliced overlay) must be byte-identical.
  Coalescing is an optimisation, never a semantic.
* **query serving** — neighbours/route/digest queries answer from the
  maintained overlay between ticks; the query arm times them and the
  route answers must agree with the reference world's.

Headlines: sustained ``events_per_s`` (ingest→applied over the whole
storm, idle time counted), ``p50_ms``/``p99_ms`` ingest→applied latency,
``coalesce_ratio`` (bulk operations per raw event), ``queries_per_s`` and
the two booleans.  ``BENCH_S05.json`` tracks the trajectory.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.experiments import ExperimentResult
from repro.dynamics.mobility import reflect_into
from repro.geometry.primitives import Rect
from repro.rng import spawn_rngs
from repro.runner.registry import register
from repro.runner.serialize import canonical_json
from repro.serve.batching import TickBatcher, coalesce_events
from repro.serve.clock import monotonic_now
from repro.serve.protocol import Request
from repro.serve.server import ServeSession
from repro.serve.world import LiveWorld, WorldConfig, world_digest_parts

__all__ = ["experiment_s05_serve", "generate_storm", "replay_sequential"]


def generate_storm(
    n_nodes: int,
    n_ticks: int,
    events_per_tick: int,
    rng: np.random.Generator,
    side: float = 15.0,
    move_fraction: float = 0.8,
    duplicate_fraction: float = 0.15,
    empty_tick_every: int = 7,
    step: float = 0.6,
) -> List[List[Dict[str, Any]]]:
    """A seeded mobility-storm trace: one list of request payloads per tick.

    The generator tracks id allocation itself (ids are never reused and only
    inserts advance the high-water mark, so the ids it predicts for inserts
    equal the ones the index will allocate).  Each non-empty tick mixes:
    latest-wins duplicate moves of the same node, deletes followed by a move
    of the now-dead node (rejected identically by the coalesced and the
    sequential paths) and fresh inserts — exactly the interleavings the
    equivalence certificate must survive.
    """
    alive: List[int] = list(range(n_nodes))
    positions: Dict[int, Tuple[float, float]] = {}
    next_id = n_nodes
    ticks: List[List[Dict[str, Any]]] = []
    for tick in range(n_ticks):
        if empty_tick_every and tick % empty_tick_every == empty_tick_every - 1:
            ticks.append([])
            continue
        events: List[Dict[str, Any]] = []
        # Ids allocated this tick join `alive` only at tick end: a client
        # cannot reference a node before the post-tick reply announces its
        # id, so a well-formed trace never moves a same-tick insert.
        inserted_this_tick: List[int] = []
        for _ in range(events_per_tick):
            roll = rng.random()
            if roll < move_fraction and alive:
                node = int(alive[rng.integers(len(alive))])
                old = positions.get(node, (side / 2, side / 2))
                target = reflect_into(
                    np.asarray(old, dtype=np.float64)
                    + rng.uniform(-step, step, size=2),
                    _window(side),
                ).reshape(2)
                position = [float(target[0]), float(target[1])]
                positions[node] = (position[0], position[1])
                events.append({"op": "move", "node": node, "position": position})
                if rng.random() < duplicate_fraction:
                    events.append({"op": "move", "node": node, "position": position})
            elif roll < (1 + move_fraction) / 2 and len(alive) > 2:
                node = int(alive.pop(int(rng.integers(len(alive)))))
                events.append({"op": "delete", "node": node})
                if rng.random() < duplicate_fraction:
                    # A same-tick reference to the dead node: both paths must
                    # reject it without applying anything.
                    events.append(
                        {"op": "move", "node": node, "position": [side / 2, side / 2]}
                    )
            else:
                position = [float(rng.uniform(0, side)), float(rng.uniform(0, side))]
                events.append({"op": "insert", "position": position})
                inserted_this_tick.append(next_id)
                positions[next_id] = (position[0], position[1])
                next_id += 1
        alive.extend(inserted_this_tick)
        ticks.append(events)
    return ticks


def replay_sequential(
    positions: np.ndarray, config: WorldConfig, ticks: Sequence[Sequence[Dict[str, Any]]]
) -> LiveWorld:
    """The reference path: apply every event alone, in order, no coalescing.

    Each event becomes its own single-event batch (so every apply walks the
    full tracker/engine repair pipeline) — the semantics the coalesced
    serving path must reproduce byte-for-byte.
    """
    world = LiveWorld(positions, config)
    batcher = TickBatcher()
    for tick in ticks:
        for payload in tick:
            request = Request(
                op=payload["op"],
                node=payload.get("node"),
                position=(
                    tuple(payload["position"]) if "position" in payload else None
                ),
            )
            event, accepted = batcher.offer(request)
            assert accepted
            world.apply(coalesce_events([event], world.is_alive))
    return world


def _window(side: float) -> Rect:
    return Rect(0.0, 0.0, float(side), float(side))


def _null_headline() -> Dict:
    return {
        "events_per_s": None,
        "p50_ms": None,
        "p99_ms": None,
        "coalesce_ratio": None,
        "queries_per_s": None,
        "serve_matches_batch": None,
        "routes_match_batch": None,
    }


@register("S05")
def experiment_s05_serve(
    n_nodes: int = 400,
    n_ticks: int = 40,
    events_per_tick: int = 60,
    side: float = 15.0,
    move_fraction: float = 0.8,
    duplicate_fraction: float = 0.15,
    empty_tick_every: int = 7,
    queries_per_tick: int = 5,
    seed: int = 405,
) -> ExperimentResult:
    """Serving-daemon SLOs: latency, throughput, served-vs-batch equivalence.

    Parameters
    ----------
    n_nodes:
        Initial deployment size (uniform in the ``side``-sided window).
    n_ticks, events_per_tick:
        Storm shape; every ``empty_tick_every``-th tick is empty (the no-op
        path must stay a no-op under measurement too).
    queries_per_tick:
        Neighbours/route/digest queries issued between ticks (the query
        arm).
    seed:
        Storm + deployment RNG seed.
    """
    if n_nodes < 4:
        raise ValueError("n_nodes must be at least 4")
    if n_ticks < 1 or events_per_tick < 1:
        raise ValueError("n_ticks and events_per_tick must be positive")
    rng = np.random.default_rng(seed)
    initial = rng.uniform(0.0, side, size=(n_nodes, 2))
    config = WorldConfig(window_xmax=float(side), window_ymax=float(side))
    ticks = generate_storm(
        n_nodes,
        n_ticks,
        events_per_tick,
        rng,
        side=side,
        move_fraction=move_fraction,
        duplicate_fraction=duplicate_fraction,
        empty_tick_every=empty_tick_every,
    )

    # -- served arm: the real pipeline, wire format included -------------------
    session = ServeSession(LiveWorld(initial.copy(), config))
    rows: List[Dict] = []
    rejected_semantic = 0
    total_operations = 0
    query_spans: List[float] = []
    for tick_no, tick in enumerate(ticks):
        for payload in tick:
            line = json.dumps(payload)
            result = session.handle_line(line)
            assert result.immediate is None, "storm must never trip backpressure here"
        replies = session.flush()
        rejected_semantic += sum(1 for _, reply in replies if '"ok":false' in reply)
        if session.last_apply is not None:
            total_operations += session.last_apply.n_operations
        world = session.world
        alive = world.index.ids()
        started = monotonic_now()
        for _ in range(queries_per_tick):
            a = int(alive[rng.integers(len(alive))])
            b = int(alive[rng.integers(len(alive))])
            world.neighbours(a)
            world.route(a, b)
        query_spans.append(monotonic_now() - started)
        rows.append(
            {
                "tick": tick_no,
                "n_events": len(tick),
                "n_alive": world.n_alive,
                "applied_seq": world.applied_seq,
            }
        )

    report = session.metrics.report()
    served = session.world

    # -- reference arm: sequential, uncoalesced, same storm ---------------------
    reference = replay_sequential(initial.copy(), config, ticks)
    served_parts = canonical_json(
        world_digest_parts(served.index, served.tracker, served.engine)
    )
    reference_parts = canonical_json(
        world_digest_parts(reference.index, reference.tracker, reference.engine)
    )
    matches = served_parts == reference_parts

    # Equal worlds must route identically: re-ask both sides the same pairs
    # against the final state (answers come from the maintained overlay, no
    # rebuild on either side).
    routes_match: Optional[bool] = None
    if matches:
        rng_check = spawn_rngs(seed, 1)[0]
        alive = reference.index.ids()
        n_pairs = min(20, len(alive))
        routes_match = all(
            served.route(int(a), int(b)) == reference.route(int(a), int(b))
            for a, b in zip(
                rng_check.choice(alive, size=n_pairs),
                rng_check.choice(alive, size=n_pairs),
            )
        )

    n_events = sum(len(t) for t in ticks)
    applied_events = n_events - rejected_semantic
    query_time = sum(query_spans)
    n_queries = queries_per_tick * len(ticks) * 2  # neighbours + route per draw
    headline = _null_headline()
    headline.update(
        {
            "events_per_s": report["events_per_s"],
            "p50_ms": report["p50_ms"],
            "p99_ms": report["p99_ms"],
            "coalesce_ratio": (
                round(total_operations / applied_events, 4) if applied_events else None
            ),
            "queries_per_s": round(n_queries / query_time, 1) if query_time > 0 else None,
            "serve_matches_batch": bool(matches),
            "routes_match_batch": routes_match,
        }
    )
    return ExperimentResult(
        experiment_id="S05",
        title="Serving-daemon latency/throughput under a mobility storm",
        paper_reference="Sec. 6 maintenance under mobility, served online (PR 9)",
        rows=rows,
        headline=headline,
        notes=[
            "Latency/throughput headlines are wall-clock and vary between "
            "reruns; the serve_matches_batch / routes_match_batch certificates "
            "are deterministic.  The storm deliberately mixes duplicate moves, "
            "same-tick move-after-delete conflicts and empty ticks — the "
            "coalescer's whole contract — and the certificate compares the "
            "maintained structures (alive/positions/UDG/overlay) byte-for-byte "
            "against an uncoalesced sequential replay.",
            f"storm: {n_events} events over {n_ticks} ticks, "
            f"{rejected_semantic} semantically rejected on both paths.",
        ],
    )
