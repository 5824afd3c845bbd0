"""Chaos property harness: seeded fault storms must recover or fail loudly.

Each ``chaos_*_storm`` function runs one layer of the stack under a seeded
:class:`~repro.faults.plan.FaultPlan` and certifies the robustness contract
both ways:

* **within the envelope** the run recovers to output *byte-identical* to a
  fault-free reference — certified with the layer's own equivalence
  machinery (:func:`~repro.distributed.sharding.matches_unsharded` for
  shards, canonical store records for the queue,
  :meth:`~repro.serve.world.LiveWorld.digest` plus the reply stream for the
  daemon);
* **beyond the envelope** the run degrades to an *explicit* signal
  (:class:`~repro.faults.plan.FaultToleranceExceeded`, a quarantined queue
  row) — never a silently different result, never a hang.

A storm that recovers with non-identical output raises
:class:`ChaosViolation`; that exception firing is exactly the property the
chaos tests and the CI ``chaos-smoke`` job assert never happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import pathlib
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.tiles_udg import UDGTileSpec
from repro.distributed.construct import distributed_build
from repro.distributed.sharding import matches_unsharded, sharded_build
from repro.faults.plan import (
    CRASH,
    DROP,
    KILL,
    STALL,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultToleranceExceeded,
    InjectedWorkerCrash,
    PointSpec,
    ServeKilled,
    sample_plan,
)
from repro.faults.retry import RetryPolicy
from repro.geometry.primitives import Rect
from repro.runner import REGISTRY, register
from repro.runner.executor import make_jobs, run_jobs
from repro.runner.queue import JobQueue, run_worker
from repro.runner.serialize import canonical_json
from repro.runner.store import ResultStore
from repro.serve.server import ServeSession
from repro.serve.snapshot import restore_world, save_snapshot
from repro.serve.world import LiveWorld, WorldConfig

__all__ = [
    "CHAOS_EXPERIMENT_ID",
    "ChaosReport",
    "ChaosViolation",
    "ensure_chaos_experiment",
    "store_fingerprint",
    "chaos_shard_storm",
    "chaos_queue_storm",
    "chaos_serve_storm",
]

#: Registry id of the cheap probe experiment the queue storms execute.
CHAOS_EXPERIMENT_ID = "C90"

_WINDOW = Rect(0.0, 0.0, 15.0, 15.0)


class ChaosViolation(FaultError):
    """The property the whole subsystem defends was violated.

    A storm *recovered* (no explicit degradation signal) yet produced output
    different from the fault-free reference — silent corruption.
    """


@dataclass
class ChaosReport:
    """Outcome of one seeded storm.

    ``outcome`` is ``"recovered"`` (byte-identity certified against the
    fault-free reference) or ``"exceeded"`` (the storm outran the layer's
    budget and the layer said so explicitly).  Either is a *pass*; the
    failure mode — silent corruption — raises :class:`ChaosViolation`
    instead of returning.
    """

    suite: str
    seed: int
    outcome: str
    n_fired: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def line(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"chaos[{self.suite}] seed={self.seed} {self.outcome} faults={self.n_fired} {extras}"


def ensure_chaos_experiment() -> None:
    """Register the probe experiment (idempotent; stays registered)."""
    if CHAOS_EXPERIMENT_ID in REGISTRY:
        return
    from repro.analysis.experiments import ExperimentResult

    @register(CHAOS_EXPERIMENT_ID, title="chaos probe workload")
    def chaos_probe(x: int = 0, seed: int = 0, fail: bool = False) -> ExperimentResult:
        if fail:
            raise RuntimeError("chaos probe asked to fail")
        rng = np.random.default_rng(seed)
        return ExperimentResult(
            experiment_id=CHAOS_EXPERIMENT_ID,
            title="chaos probe workload",
            paper_reference="-",
            rows=[{"x": x, "draw": float(rng.random())}],
            headline={"x": float(x)},
        )


def store_fingerprint(store: Union[str, pathlib.Path], experiment_id: Optional[str] = None) -> str:
    """Canonical bytes of a store's ``ok`` records (backend-agnostic)."""
    opened = ResultStore(store)
    try:
        opened.refresh()
        records = sorted(
            opened.records(experiment_id=experiment_id, status="ok"),
            key=lambda record: str(record.get("key")),
        )
        return canonical_json(records)
    finally:
        opened.close()


def _deployment(seed: int, n_points: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4A05]))
    return rng.uniform(0.0, 15.0, size=(n_points, 2))


# ---------------------------------------------------------------------------
# shard storms
# ---------------------------------------------------------------------------
def chaos_shard_storm(
    seed: int,
    *,
    executor: str = "serial",
    n_shards: int = 4,
    n_points: int = 180,
    rate: float = 0.25,
    horizon: int = 48,
    max_attempts: int = 3,
    plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """Crash/stall storm against the sharded builder.

    Within the envelope (fewer than ``max_attempts`` consecutive faults per
    shard attempt chain) the stitched result must match an unfaulted
    unsharded build — edges, elections, relays *and* message accounting.
    """
    points = _deployment(seed, n_points)
    spec = UDGTileSpec.default()
    reference = distributed_build(points, spec, _WINDOW, radio_range=None)
    if plan is None:
        plan = sample_plan(
            seed,
            {
                "shard.build": PointSpec(
                    kinds=(CRASH, STALL), horizon=horizon, rate=rate, arg_range=(0.0, 0.02)
                )
            },
        )
    injector = FaultInjector(plan)
    backoffs: List[float] = []
    try:
        result, _info = sharded_build(
            points,
            spec,
            _WINDOW,
            n_shards=n_shards,
            executor=executor,
            injector=injector,
            retry=RetryPolicy(max_attempts=max_attempts),
            sleep=backoffs.append,
        )
    except FaultToleranceExceeded as err:
        return ChaosReport(
            suite="shard",
            seed=seed,
            outcome="exceeded",
            n_fired=injector.n_fired(),
            detail={"error": type(err).__name__, "resubmissions": len(backoffs)},
        )
    if not matches_unsharded(result, reference):
        raise ChaosViolation(
            f"shard storm seed={seed} recovered to a DIFFERENT build than the "
            f"fault-free reference (plan: {plan.canonical()})"
        )
    return ChaosReport(
        suite="shard",
        seed=seed,
        outcome="recovered",
        n_fired=injector.n_fired(),
        detail={"resubmissions": len(backoffs), "executor": executor},
    )


# ---------------------------------------------------------------------------
# queue storms
# ---------------------------------------------------------------------------
def chaos_queue_storm(
    seed: int,
    workdir: Union[str, pathlib.Path],
    *,
    n_jobs: int = 6,
    rate: float = 0.35,
    horizon: int = 32,
    max_attempts: int = 4,
    lease_seconds: float = 30.0,
    max_workers: int = 25,
    plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """Worker-death storm against the pull-worker queue.

    Every injected crash kills the draining worker with its claim still
    held; recovery is lease-expiry takeover by a replacement worker (the
    test advances the clock through ``reopen_expired`` instead of waiting
    a lease out).  Jobs whose claimants die ``max_attempts`` times are
    quarantined; :meth:`~repro.runner.queue.JobQueue.requeue` then drains
    them with a fresh budget.  Whatever the path, the surviving store must
    be byte-identical to a fault-free serial run of the same jobs.
    """
    ensure_chaos_experiment()
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = make_jobs(
        CHAOS_EXPERIMENT_ID, [{"x": i, "seed": seed * 1000 + i} for i in range(n_jobs)]
    )

    ref_store = workdir / f"queue-ref-{seed}"
    run_jobs(jobs, n_jobs=1, store=ref_store)

    queue_path = workdir / f"queue-chaos-{seed}.sqlite"
    with JobQueue(queue_path) as queue:
        queue.enqueue(jobs)
    if plan is None:
        plan = sample_plan(
            seed,
            {
                "queue.execute": PointSpec(
                    kinds=(CRASH, STALL), horizon=horizon, rate=rate, arg_range=(0.0, 0.01)
                )
            },
        )
    injector = FaultInjector(plan)
    idle_sleeps: List[float] = []
    crashes = 0
    requeues = 0
    drained = False
    for generation in range(1, max_workers + 1):
        try:
            run_worker(
                queue_path,
                worker_id=f"chaos-{seed}-w{generation}",
                lease_seconds=lease_seconds,
                max_attempts=max_attempts,
                sleep=idle_sleeps.append,
                injector=injector,
            )
        except InjectedWorkerCrash:
            crashes += 1
            # The dead worker's claim expires; jump past the latest stamped
            # lease instead of sleeping it out (no wall-clock read needed).
            with JobQueue(queue_path) as queue:
                latest = max((row["lease_expires"] or 0.0) for row in queue.rows())
                queue.reopen_expired(now=latest + 1.0)
            continue
        with JobQueue(queue_path) as queue:
            counts = queue.counts()
            if counts["quarantined"]:
                # The explicit beyond-the-envelope degradation: recover it
                # through the operator path and keep draining.
                requeues += counts["quarantined"]
                queue.requeue()
                continue
        drained = counts["open"] == 0 and counts["claimed"] == 0
        break
    if not drained:
        raise ChaosViolation(
            f"queue storm seed={seed} did not drain within {max_workers} worker "
            f"generations (plan: {plan.canonical()})"
        )
    if counts["done"] != n_jobs or counts["failed"] != 0:
        raise ChaosViolation(f"queue storm seed={seed} ended with bad counts {counts}")
    if store_fingerprint(queue_path, CHAOS_EXPERIMENT_ID) != store_fingerprint(
        ref_store, CHAOS_EXPERIMENT_ID
    ):
        raise ChaosViolation(
            f"queue storm seed={seed} stored records differing from the fault-free "
            f"serial run (plan: {plan.canonical()})"
        )
    return ChaosReport(
        suite="queue",
        seed=seed,
        outcome="recovered",
        n_fired=injector.n_fired(),
        detail={"worker_deaths": crashes, "quarantined": requeues},
    )


# ---------------------------------------------------------------------------
# serve storms
# ---------------------------------------------------------------------------
def chaos_serve_storm(
    seed: int,
    workdir: Union[str, pathlib.Path],
    *,
    n_nodes: int = 30,
    n_ticks: int = 8,
    events_per_tick: int = 4,
    kill_rate: float = 0.3,
    client_rate: float = 0.3,
    max_attempts: int = 6,
    plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """Kill/reconnect storm against the serve session.

    The client streams tick batches; a ``serve.tick`` *kill* fault dies
    mid-flush (the tick never applied), the client restores the daemon from
    its snapshot store and *resends the unacknowledged batch* — which gets
    the very seqs the lost originals carried, so the surviving replies and
    the final world digest must equal the uninterrupted reference run's.
    ``serve.client`` faults lose the client's copy of a tick's replies
    (verified back through the ``resume`` handshake) or stall it (resynced
    with a ``ping``).
    """
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E47E]))
    positions = rng.uniform(0.0, 15.0, size=(n_nodes, 2))
    ticks: List[List[Dict[str, Any]]] = []
    for _ in range(n_ticks):
        batch: List[Dict[str, Any]] = []
        for _ in range(events_per_tick):
            draw = rng.random()
            if draw < 0.7:
                batch.append(
                    {
                        "op": "move",
                        "node": int(rng.integers(n_nodes)),
                        "position": [float(rng.uniform(0.0, 15.0)) for _ in range(2)],
                    }
                )
            elif draw < 0.85:
                batch.append(
                    {"op": "insert", "position": [float(rng.uniform(0.0, 15.0)) for _ in range(2)]}
                )
            else:
                batch.append({"op": "delete", "node": int(rng.integers(n_nodes))})
        ticks.append(batch)

    # -- fault-free reference -------------------------------------------------
    ref_world = LiveWorld(positions.copy(), WorldConfig())
    ref_session = ServeSession(ref_world)
    ref_replies: List[List[str]] = []
    for batch in ticks:
        for event in batch:
            ref_session.handle_line(json.dumps(event))
        ref_replies.append([reply for _, reply in ref_session.flush()])

    # -- the storm ------------------------------------------------------------
    if plan is None:
        plan = sample_plan(
            seed,
            {
                "serve.tick": PointSpec(
                    kinds=(KILL,), horizon=n_ticks * max_attempts, rate=kill_rate
                ),
                "serve.client": PointSpec(
                    kinds=(DROP, STALL), horizon=n_ticks, rate=client_rate
                ),
            },
        )
    injector = FaultInjector(plan)
    snap_store = workdir / f"serve-chaos-{seed}"
    world = LiveWorld(positions.copy(), WorldConfig())
    session = ServeSession(world, snapshot_store=snap_store, injector=injector)
    save_snapshot(snap_store, world)  # seq-0 baseline: even a first-tick kill restores
    kills = 0
    resumes = 0
    for tick_no, batch in enumerate(ticks):
        applied: Optional[List[str]] = None
        for attempt in range(1, max_attempts + 1):
            for event in batch:
                result = session.handle_line(json.dumps(event))
                if result.immediate is not None:
                    raise ChaosViolation(
                        f"serve storm seed={seed} tick {tick_no}: event refused "
                        f"unexpectedly: {result.immediate}"
                    )
            try:
                applied = [reply for _, reply in session.flush()]
            except ServeKilled:
                kills += 1
                world = restore_world(snap_store)
                session = ServeSession(world, snapshot_store=snap_store, injector=injector)
                continue
            break
        if applied is None:
            return ChaosReport(
                suite="serve",
                seed=seed,
                outcome="exceeded",
                n_fired=injector.n_fired(),
                detail={"kills": kills, "stuck_tick": tick_no},
            )
        save_snapshot(snap_store, world)
        fault = injector.fire("serve.client")
        if fault is not None and fault.kind == DROP:
            # The client lost this tick's replies; the resume handshake tells
            # it the events nevertheless applied (so: no resend).
            resumes += 1
            resume = session.handle_line(json.dumps({"op": "resume"}))
            payload = json.loads(resume.immediate or "{}")
            if not payload.get("ok") or payload.get("applied_seq") != world.applied_seq:
                raise ChaosViolation(
                    f"serve storm seed={seed}: resume handshake disagreed: {payload}"
                )
        else:
            if applied != ref_replies[tick_no]:
                raise ChaosViolation(
                    f"serve storm seed={seed} tick {tick_no}: replies diverged from "
                    f"the uninterrupted reference (plan: {plan.canonical()})"
                )
            if fault is not None and fault.kind == STALL:
                pong = session.handle_line(json.dumps({"op": "ping"}))
                payload = json.loads(pong.immediate or "{}")
                if not payload.get("pong"):
                    raise ChaosViolation(f"serve storm seed={seed}: ping resync failed")
    if world.digest() != ref_world.digest() or world.applied_seq != ref_world.applied_seq:
        raise ChaosViolation(
            f"serve storm seed={seed} recovered to a DIFFERENT world than the "
            f"uninterrupted reference (plan: {plan.canonical()})"
        )
    return ChaosReport(
        suite="serve",
        seed=seed,
        outcome="recovered",
        n_fired=injector.n_fired(),
        detail={"kills": kills, "reply_drops": resumes},
    )
