"""Event batching: the bounded pending queue and the per-tick coalescer.

The daemon never applies events one by one — it buffers them in a
:class:`TickBatcher` and, once per tick, coalesces the buffered events into
one bulk update (:func:`coalesce_events`) that the
:class:`~repro.serve.world.LiveWorld` applies through a single consumed
dirty-id stream.  Two contracts make that safe and fast:

**Backpressure is explicit.**  The pending queue is bounded: past the
high-water mark :meth:`TickBatcher.offer` refuses the event and the
transport replies ``{"ok": false, "error": "overloaded", "retry_after": s}``
instead of queueing unboundedly.  ``retry_after`` is one tick interval:
a refusal happens only when the buffer is full, and the next flush drains
the whole buffer, so a client that waits one tick finds room again.

**Coalescing preserves sequential semantics.**  The coalesced batch is, by
construction, equivalent to applying the *accepted* events one at a time in
arrival order:

* the last ``move`` per node wins (earlier moves of the same node are
  shadowed — mobility streams routinely re-report positions);
* a ``delete`` cancels pending moves of that node and rejects later events
  referencing it (the sequential path would reject them too: the node is
  dead by then);
* ``insert`` events keep arrival order, so the ids the index allocates at
  apply time equal the ids a sequential application would have allocated
  (ids are never reused, and only inserts advance the id high-water mark).

Within one tick a client cannot reference a node inserted in the same tick —
its id is only announced in the post-tick reply — which is what keeps the
reorder (moves, then deletes, then inserts) exact rather than approximate.
The served-vs-batch equivalence certificate property-tests exactly this
contract over random interleavings, duplicates and empty ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.serve.protocol import Request

__all__ = [
    "DEFAULT_HIGH_WATER",
    "DEFAULT_TICK_INTERVAL",
    "PendingEvent",
    "CoalescedBatch",
    "TickBatcher",
    "coalesce_events",
]

_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_POINTS = np.zeros((0, 2), dtype=np.float64)


@dataclass(frozen=True)
class PendingEvent:
    """One accepted update event awaiting its tick: the request plus its seq."""

    seq: int
    request: Request


@dataclass
class CoalescedBatch:
    """One tick's worth of events, coalesced into bulk index operations.

    ``move_ids`` / ``move_positions`` carry the surviving (latest-wins,
    not-deleted) moves in ascending id order; ``insert_positions`` keeps
    arrival order with ``insert_seqs`` naming the event each allocated id
    must be reported to.  ``accepted`` / ``rejected`` list the per-event
    dispositions the transport turns into replies — a rejected event (a
    ``move`` or ``delete`` of a node that is dead or deleted earlier in the
    same tick) is *not* applied, exactly as a sequential application would
    have refused it.
    """

    move_ids: np.ndarray
    move_positions: np.ndarray
    delete_ids: np.ndarray
    insert_positions: np.ndarray
    insert_seqs: List[int]
    accepted: List[PendingEvent] = field(default_factory=list)
    rejected: List[Tuple[PendingEvent, str]] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        """Raw accepted events (before coalescing)."""
        return len(self.accepted)

    @property
    def n_operations(self) -> int:
        """Bulk operations actually applied (after coalescing)."""
        return int(len(self.move_ids) + len(self.delete_ids) + len(self.insert_positions))

    @property
    def is_empty(self) -> bool:
        """True when the tick coalesced away entirely (a true no-op apply)."""
        return self.n_operations == 0


def coalesce_events(
    events: Sequence[PendingEvent],
    is_alive: Callable[[int], bool],
) -> CoalescedBatch:
    """Fold one tick's accepted events into a :class:`CoalescedBatch`.

    ``is_alive`` answers against the world state *before* the tick; nodes
    deleted earlier in the same tick are tracked locally so later events
    referencing them are rejected just as a sequential application would.
    """
    moves: Dict[int, Tuple[float, float]] = {}
    deletes: List[int] = []
    dead: set = set()
    insert_positions: List[Tuple[float, float]] = []
    insert_seqs: List[int] = []
    accepted: List[PendingEvent] = []
    rejected: List[Tuple[PendingEvent, str]] = []

    for event in events:
        request = event.request
        if request.op == "insert":
            assert request.position is not None
            insert_positions.append(request.position)
            insert_seqs.append(event.seq)
            accepted.append(event)
            continue
        node = request.node
        assert node is not None
        if node in dead or not is_alive(node):
            rejected.append((event, f"node {node} is not alive"))
            continue
        if request.op == "move":
            assert request.position is not None
            moves[node] = request.position
        else:  # delete
            dead.add(node)
            deletes.append(node)
            moves.pop(node, None)
        accepted.append(event)

    if moves:
        move_ids = np.fromiter(sorted(moves), dtype=np.int64, count=len(moves))
        move_positions = np.asarray([moves[int(i)] for i in move_ids], dtype=np.float64)
    else:
        move_ids, move_positions = _EMPTY_IDS.copy(), _EMPTY_POINTS.copy()
    delete_ids = (
        np.sort(np.asarray(deletes, dtype=np.int64)) if deletes else _EMPTY_IDS.copy()
    )
    inserts = (
        np.asarray(insert_positions, dtype=np.float64)
        if insert_positions
        else _EMPTY_POINTS.copy()
    )
    return CoalescedBatch(
        move_ids=move_ids,
        move_positions=move_positions,
        delete_ids=delete_ids,
        insert_positions=inserts,
        insert_seqs=insert_seqs,
        accepted=accepted,
        rejected=rejected,
    )


#: Default tick interval in seconds: the TCP daemon's sleep between flushes
#: and every ``retry_after`` hint (why 20 ms: see the ``repro.serve.server``
#: module docstring).
DEFAULT_TICK_INTERVAL = 0.02
#: Default pending-event bound before backpressure refusals.
DEFAULT_HIGH_WATER = 50_000


class TickBatcher:
    """Bounded buffer of pending update events with explicit backpressure.

    Parameters
    ----------
    high_water:
        Maximum number of buffered events.  :meth:`offer` refuses events
        past it; the refusal carries a ``retry_after`` hint of one
        ``tick_interval``.
    tick_interval:
        The scheduler's nominal tick period, used only to size the
        ``retry_after`` hint (the batcher itself never reads a clock).
    start_seq:
        First event sequence number to hand out.  A daemon restored from a
        snapshot resumes at the snapshot's ``applied_seq + 1``, so replayed
        tail events carry the same seqs the uninterrupted run gave them.
    """

    def __init__(
        self,
        high_water: int = DEFAULT_HIGH_WATER,
        tick_interval: float = DEFAULT_TICK_INTERVAL,
        start_seq: int = 1,
    ) -> None:
        if high_water < 1:
            raise ValueError("high_water must be positive")
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if start_seq < 1:
            raise ValueError("start_seq must be positive")
        self.high_water = int(high_water)
        self.tick_interval = float(tick_interval)
        self._pending: List[PendingEvent] = []
        self._next_seq = int(start_seq)
        #: Backpressure accounting: events refused at the high-water mark.
        self.rejected_overload = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def retry_after(self) -> float:
        """Seconds a refused client should wait: one tick, which drains the full buffer."""
        return self.tick_interval

    def offer(self, request: Request) -> Tuple[PendingEvent, bool]:
        """Buffer one update event; ``(event, accepted)``.

        A refused event still gets a :class:`PendingEvent` (carrying the seq
        it *would* have had — seqs are only consumed on acceptance, so the
        accepted stream stays gapless) for the transport's error reply.
        """
        if not request.is_update:
            raise ValueError(f"only update ops are batched, got {request.op!r}")
        event = PendingEvent(seq=self._next_seq, request=request)
        if len(self._pending) >= self.high_water:
            self.rejected_overload += 1
            return event, False
        self._next_seq += 1
        self._pending.append(event)
        return event, True

    def drain(self) -> List[PendingEvent]:
        """Remove and return the buffered events (one tick's input)."""
        pending, self._pending = self._pending, []
        return pending
