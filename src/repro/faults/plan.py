"""Seeded fault plans: deterministic chaos in the injected-RNG discipline.

A :class:`FaultPlan` is a *pre-sampled schedule* of faults against named
injection points ("``network.deliver``", "``shard.build``",
"``queue.execute``", "``serve.tick``", "``serve.client``").  The plan is
built once from a :class:`numpy.random.SeedSequence`-derived generator
(:func:`sample_plan`) or written out by hand, and serialises as canonical
JSON — so a chaos run is replayable byte-for-byte from ``(inputs, seed)``
exactly like every other seeded path in this repo.  Nothing at the injection
sites ever draws randomness: a :class:`FaultInjector` just counts visits to
each point and fires the fault the plan scheduled for that occurrence.

The tolerated *envelope* of a plan is a property of the consuming layer
(bounded retries in :mod:`repro.distributed.sharding`, attempt caps in
:mod:`repro.runner.queue`, snapshot/resume in :mod:`repro.serve`): a plan
whose faults fit the layer's budget must recover to byte-identical output;
a plan beyond it must degrade to an explicit error or quarantine record —
the chaos property tests certify both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.runner.serialize import canonical_json

__all__ = [
    "DROP",
    "DUPLICATE",
    "DELAY",
    "CRASH",
    "STALL",
    "KILL",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "PointSpec",
    "sample_plan",
    "FaultError",
    "InjectedWorkerCrash",
    "ServeKilled",
    "FaultToleranceExceeded",
]

#: Message-level faults (``network.deliver``).
DROP, DUPLICATE, DELAY = "drop", "duplicate", "delay"
#: Worker-level faults (``shard.build``, ``queue.execute``).
CRASH, STALL = "crash", "stall"
#: Daemon/connection-level faults (``serve.tick``, ``serve.client``).
KILL = "kill"

FAULT_KINDS = (DROP, DUPLICATE, DELAY, CRASH, STALL, KILL)


class FaultError(RuntimeError):
    """Base class of every injected-fault signal."""


class InjectedWorkerCrash(FaultError):
    """A simulated worker death (shard task or queue claimant).

    Semantically a SIGKILL: the holder vanishes mid-work, so recovery must
    come from the *outside* (task resubmission, lease expiry) — handlers
    must never complete or release on its behalf.
    """


class ServeKilled(FaultError):
    """A simulated daemon death mid-tick (the tick never applied)."""


class FaultToleranceExceeded(FaultError):
    """A fault storm outran the layer's recovery budget.

    This is the *explicit* out-of-envelope outcome: the caller gets a loud
    error (never a silently corrupted result, never a hang).
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: fire ``kind`` at the ``occurrence``-th visit of ``point``.

    ``arg`` is the kind's parameter: stall/delay duration in seconds (or
    rounds for message delay), and for :data:`CRASH` an ``arg >= 1`` asks
    for a *hard* crash (process death, breaking the whole pool) instead of
    an in-worker exception.
    """

    point: str
    occurrence: int
    kind: str
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}")
        if self.occurrence < 0:
            raise ValueError("occurrence must be non-negative")

    def to_payload(self) -> Dict[str, Any]:
        return {
            "point": self.point,
            "occurrence": int(self.occurrence),
            "kind": self.kind,
            "arg": float(self.arg),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Fault":
        return cls(
            point=str(payload["point"]),
            occurrence=int(payload["occurrence"]),
            kind=str(payload["kind"]),
            arg=float(payload.get("arg", 0.0)),
        )


class FaultPlan:
    """An immutable schedule of faults, canonically serialisable.

    At most one fault per ``(point, occurrence)`` — the n-th visit of an
    injection point either fires exactly one fault or none, which keeps
    injector semantics trivial and plans order-independent.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        ordered = sorted(faults, key=lambda f: (f.point, f.occurrence, f.kind))
        seen = set()
        for fault in ordered:
            slot = (fault.point, fault.occurrence)
            if slot in seen:
                raise ValueError(f"duplicate fault slot {slot}: one fault per occurrence")
            seen.add(slot)
        self.faults: Tuple[Fault, ...] = tuple(ordered)
        self._by_point: Dict[str, Dict[int, Fault]] = {}
        for fault in self.faults:
            self._by_point.setdefault(fault.point, {})[fault.occurrence] = fault

    def __len__(self) -> int:
        return len(self.faults)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.faults == other.faults

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.faults)} faults over {sorted(self._by_point)})"

    def for_point(self, point: str) -> Dict[int, Fault]:
        """``occurrence -> fault`` of one injection point (empty if unscheduled)."""
        return dict(self._by_point.get(point, {}))

    def count(self, point: Optional[str] = None, kind: Optional[str] = None) -> int:
        """How many scheduled faults match the (optional) point/kind filters."""
        return sum(
            1
            for fault in self.faults
            if (point is None or fault.point == point) and (kind is None or fault.kind == kind)
        )

    def to_payload(self) -> Dict[str, Any]:
        return {"version": 1, "faults": [fault.to_payload() for fault in self.faults]}

    def canonical(self) -> str:
        """The plan as one canonical-JSON line (the replayable artefact)."""
        return canonical_json(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if payload.get("version") != 1:
            raise ValueError(f"unknown fault-plan version {payload.get('version')!r}")
        return cls(Fault.from_payload(entry) for entry in payload["faults"])


@dataclass(frozen=True)
class PointSpec:
    """How :func:`sample_plan` populates one injection point.

    ``horizon`` is the number of occurrences faults may land on, ``rate``
    the per-occurrence fault probability, ``kinds`` the kinds drawn
    uniformly for each hit, ``arg_range`` the uniform range of each fault's
    ``arg`` (left endpoint used verbatim when the range is empty).
    """

    kinds: Tuple[str, ...]
    horizon: int
    rate: float
    arg_range: Tuple[float, float] = (0.0, 0.0)
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ValueError("kinds must be non-empty")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")


SeedLike = Union[int, "np.random.SeedSequence"]  # quoted: np.random would load numpy.random


def _point_child(root: np.random.SeedSequence, point: str) -> np.random.SeedSequence:
    """Child SeedSequence keyed by a stable digest of the point *name*.

    Positional ``root.spawn`` would renumber siblings whenever a point is
    added to the spec mapping; keying on the name keeps every point's
    stream fixed regardless of what else is sampled alongside it.
    """
    key = int.from_bytes(hashlib.sha256(point.encode("utf-8")).digest()[:8], "big")
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (key,))


def sample_plan(seed: SeedLike, specs: Mapping[str, PointSpec]) -> FaultPlan:
    """Sample a :class:`FaultPlan` from a seed (SeedSequence-derived per point).

    Each injection point gets its own child generator, keyed by the point
    *name* rather than its position — so adding a point to ``specs`` never
    perturbs the faults sampled for the others, the same isolation contract
    :func:`repro.rng.spawn_rngs` gives per-job seeds.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    faults: List[Fault] = []
    for point in sorted(specs):
        child = _point_child(root, point)
        spec = specs[point]
        rng = np.random.default_rng(child)
        if spec.horizon == 0 or spec.rate <= 0.0:
            continue
        hits = np.nonzero(rng.random(spec.horizon) < spec.rate)[0]
        if spec.max_faults is not None and len(hits) > spec.max_faults:
            hits = rng.choice(hits, size=spec.max_faults, replace=False)
            hits.sort()
        for occurrence in hits.tolist():
            kind = spec.kinds[int(rng.integers(len(spec.kinds)))]
            lo, hi = spec.arg_range
            arg = float(lo) if hi <= lo else float(rng.uniform(lo, hi))
            faults.append(Fault(point=point, occurrence=int(occurrence), kind=kind, arg=arg))
    return FaultPlan(faults)


class FaultInjector:
    """Replays a :class:`FaultPlan` against visit counters — no randomness.

    Each call to :meth:`fire` is one *occurrence* of the named point; the
    injector returns the fault the plan scheduled there (advancing the
    counter either way) and logs everything it fired.  An injector built
    without a plan never fires, so production call sites can pass it
    unconditionally.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._visits: Dict[str, int] = {}
        self.fired: List[Fault] = []

    def fire(self, point: str) -> Optional[Fault]:
        """Advance ``point``'s visit counter; return the fault due now, if any."""
        occurrence = self._visits.get(point, 0)
        self._visits[point] = occurrence + 1
        fault = self.plan._by_point.get(point, {}).get(occurrence)
        if fault is not None:
            self.fired.append(fault)
        return fault

    def visits(self, point: str) -> int:
        """How many occurrences of ``point`` have happened so far."""
        return self._visits.get(point, 0)

    def n_fired(self, point: Optional[str] = None, kind: Optional[str] = None) -> int:
        """How many faults actually fired (filtered like :meth:`FaultPlan.count`)."""
        return sum(
            1
            for fault in self.fired
            if (point is None or fault.point == point) and (kind is None or fault.kind == kind)
        )
