"""The daemon: tick scheduling plus the TCP and stdio transports.

:class:`ServeSession` is the transport-agnostic core — one per daemon.  It
owns the :class:`~repro.serve.world.LiveWorld`, the bounded
:class:`~repro.serve.batching.TickBatcher` and the
:class:`~repro.serve.metrics.LatencyRecorder`, and exposes exactly two
entry points: :meth:`ServeSession.handle_request` (classify + buffer or
answer one request) and :meth:`ServeSession.flush` (apply the pending tick,
returning the deferred per-event replies).  Everything in the session is
synchronous and clock-injected, so the whole serving pipeline is testable
without sockets, sleeps or wall time.

Two transports drive the session:

* :class:`ServeDaemon` — the production asyncio TCP front-end.  A timer
  task sleeps ``tick_interval`` seconds, flushes, and sleeps again, so the
  real tick period is ``tick_interval`` plus the flush time.  It routes each
  deferred reply back to the connection that sent the event, one write and
  one drain per connection per tick; queries answer immediately against the
  last applied tick.  Updates past the batcher's high-water mark are
  refused with ``retry_after`` (explicit backpressure, never an unbounded
  queue).

  An update's reply waits for the next tick, so the interval sets most of
  the update latency, and every tick pays a fixed cost in daemon CPU: the
  flush, and the event-loop wake-up and reply write around it.  The
  default, 20 ms, is what that fixed cost affords: a tick's tile decisions
  take a fixed number of numpy calls (shared region parts tested once,
  cached region columns and tiling counts), and a ``route`` query reads
  the overlay adjacency the repair engine keeps current instead of
  re-splicing the overlay after every tick that changed a tile.  Together
  they keep the daemon's CPU on serve-churn level with the former 30 ms
  default.  A shorter tick would cut the update latency further, at more
  daemon CPU per second.  A failing tick stops the daemon loudly (see
  :meth:`ServeDaemon.serve_forever`).
* :func:`run_stdio` — the deterministic replay transport behind
  ``python -m repro.serve --stdio``.  Ticks fire only on explicit
  ``{"op": "tick"}`` lines (and before reads / at EOF), so a recorded
  trace produces byte-identical replies on every run — which is what the
  CI serve-smoke and the equivalence certificates pipe through.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
import pathlib
from typing import TYPE_CHECKING, Any, Callable, Dict, IO, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.serve.batching import (
    DEFAULT_HIGH_WATER,
    DEFAULT_TICK_INTERVAL,
    PendingEvent,
    TickBatcher,
    coalesce_events,
)
from repro.serve.clock import monotonic_now
from repro.serve.metrics import LatencyRecorder
from repro.serve.protocol import (
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_line,
)
from repro.serve.snapshot import save_snapshot
from repro.serve.world import ApplyResult, LiveWorld

if TYPE_CHECKING:
    from repro.faults.plan import FaultInjector
    from repro.runner.store import ResultStore

__all__ = ["HandleResult", "ServeSession", "ServeDaemon", "run_stdio"]

#: Ops the stdio transport flushes the pending tick before answering, so a
#: recorded trace reads deterministically regardless of tick timing.
READ_OPS = ("query", "snapshot", "stats")


@dataclass
class HandleResult:
    """Outcome of one handled request.

    ``immediate`` is the reply to write now (``None`` for accepted update
    events — their reply arrives with the tick); ``event`` names the
    buffered event for transports that route deferred replies;
    ``flush_requested`` marks an explicit ``tick`` op; ``shutdown`` asks the
    transport to stop after replying.
    """

    immediate: Optional[str]
    event: Optional[PendingEvent] = None
    flush_requested: bool = False
    shutdown: bool = False
    client_id: Any = None


class ServeSession:
    """Transport-agnostic daemon core: world + batcher + metrics.

    Parameters
    ----------
    world:
        The served :class:`LiveWorld`.
    tick_interval:
        The TCP timer's sleep between flushes, by default
        :data:`~repro.serve.batching.DEFAULT_TICK_INTERVAL` (20 ms: short
        enough that an update's reply waits little, long enough that the
        per-tick fixed cost stays a small share of the daemon's CPU); also
        the ``retry_after`` hint of a refused event.
    high_water:
        Pending-queue bound (events) before backpressure kicks in.
    snapshot_store:
        Store root (JSONL directory or SQLite path) for the ``snapshot``
        op; ``None`` rejects snapshot requests.
    clock:
        Injected monotonic clock for the latency recorder.
    injector:
        Optional seeded fault injector; its ``serve.tick`` point fires once
        per :meth:`flush`, and a *kill* fault raises
        :class:`~repro.faults.plan.ServeKilled` *before* anything applies —
        a simulated daemon death mid-tick.  Recovery is the operator's
        restore-from-snapshot path; clients learn where to resume from the
        ``resume`` op.
    """

    def __init__(
        self,
        world: LiveWorld,
        tick_interval: float = DEFAULT_TICK_INTERVAL,
        high_water: int = DEFAULT_HIGH_WATER,
        snapshot_store: Union[str, pathlib.Path, ResultStore, None] = None,
        clock: Callable[[], float] = monotonic_now,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.world = world
        # Seqs resume past what the world already applied, so a restored
        # daemon numbers replayed tail events like the uninterrupted run.
        self.batcher = TickBatcher(
            high_water=high_water,
            tick_interval=tick_interval,
            start_seq=world.applied_seq + 1,
        )
        self.metrics = LatencyRecorder(clock=clock)
        self.snapshot_store = snapshot_store
        self.injector = injector
        self.running = True
        #: The most recent tick's ApplyResult (coalescing/repair accounting).
        self.last_apply: Optional[ApplyResult] = None

    # -- request handling ---------------------------------------------------
    def handle_line(self, line: str) -> HandleResult:
        """Parse + handle one request line (parse errors become replies)."""
        try:
            request = parse_line(line)
        except ProtocolError as err:
            return HandleResult(immediate=error_response(str(err)))
        return self.handle_request(request)

    def handle_request(self, request: Request) -> HandleResult:
        if request.is_update:
            event, accepted = self.batcher.offer(request)
            if not accepted:
                retry_after = self.batcher.retry_after()
                self.metrics.rejected(retry_after)
                return HandleResult(
                    immediate=error_response(
                        "overloaded",
                        request.client_id,
                        retry_after=retry_after,
                        pending=len(self.batcher),
                    )
                )
            self.metrics.ingest(event.seq)
            return HandleResult(immediate=None, event=event)
        if request.op == "tick":
            return HandleResult(
                immediate=None, flush_requested=True, client_id=request.client_id
            )
        if request.op == "ping":
            return HandleResult(
                immediate=ok_response(
                    request.client_id,
                    pong=True,
                    applied_seq=self.world.applied_seq,
                    n_alive=self.world.n_alive,
                )
            )
        if request.op == "resume":
            # The reconnect handshake: report where the world and the seq
            # counter stand *without* flushing, so a client can compute which
            # of its unacknowledged events to resend (they get the same seqs
            # the lost originals would have carried).
            return HandleResult(
                immediate=ok_response(
                    request.client_id,
                    applied_seq=self.world.applied_seq,
                    next_seq=self.batcher.next_seq,
                    pending=len(self.batcher),
                    n_alive=self.world.n_alive,
                )
            )
        if request.op == "stats":
            return HandleResult(immediate=self._stats_response(request.client_id))
        if request.op == "snapshot":
            return HandleResult(immediate=self._snapshot_response(request.client_id))
        if request.op == "shutdown":
            self.running = False
            return HandleResult(
                immediate=ok_response(request.client_id, stopping=True), shutdown=True
            )
        return HandleResult(immediate=self._query_response(request))

    def tick_ack(self, client_id: Any = None) -> str:
        """The post-flush acknowledgement of an explicit ``tick`` op."""
        return ok_response(
            client_id,
            ticked=True,
            applied_seq=self.world.applied_seq,
            n_alive=self.world.n_alive,
        )

    # -- the tick -----------------------------------------------------------
    def flush(self) -> List[Tuple[PendingEvent, str]]:
        """Apply the pending events as one coalesced tick.

        Returns the deferred ``(event, reply)`` pairs in seq order —
        accepted events report their applied seq (inserts also their
        allocated node id), events invalidated within the tick (moves or
        deletes of dead nodes) report the rejection a sequential
        application would have produced.

        With a fault injector attached, each flush is one occurrence of the
        ``serve.tick`` point; a *kill* fault raises
        :class:`~repro.faults.plan.ServeKilled` before the batch drains —
        the tick never applied, exactly like a daemon SIGKILL between
        accepting events and committing them.
        """
        if self.injector is not None:
            from repro.faults.plan import KILL, ServeKilled  # only a faulted run

            fault = self.injector.fire("serve.tick")
            if fault is not None and fault.kind == KILL:
                raise ServeKilled("injected daemon death mid-tick")
        events = self.batcher.drain()
        batch = coalesce_events(events, self.world.is_alive)
        result = self.world.apply(batch)
        self.last_apply = result
        self.metrics.applied([event.seq for event in events])
        rejected = {event.seq: reason for event, reason in batch.rejected}
        replies: List[Tuple[PendingEvent, str]] = []
        for event in events:
            client_id = event.request.client_id
            if event.seq in rejected:
                replies.append(
                    (event, error_response(rejected[event.seq], client_id, seq=event.seq))
                )
                continue
            fields: Dict[str, Any] = {
                "seq": event.seq,
                "applied_seq": result.applied_seq,
            }
            if event.seq in result.inserted_ids:
                fields["node"] = result.inserted_ids[event.seq]
            replies.append((event, ok_response(client_id, **fields)))
        return replies

    # -- immediate answers --------------------------------------------------
    def _stats_response(self, client_id: Any) -> str:
        return ok_response(
            client_id,
            applied_seq=self.world.applied_seq,
            n_alive=self.world.n_alive,
            pending=len(self.batcher),
            rejected_overload=self.batcher.rejected_overload,
            latency=self.metrics.report(),
        )

    def _snapshot_response(self, client_id: Any) -> str:
        if self.snapshot_store is None:
            return error_response("no snapshot store configured", client_id)
        record = save_snapshot(self.snapshot_store, self.world)
        return ok_response(
            client_id,
            snapshot_seq=record["params"]["seq"],
            digest=record["result"]["digest"],
        )

    def _query_response(self, request: Request) -> str:
        world, args, client_id = self.world, request.args, request.client_id
        try:
            if request.kind == "neighbours":
                node = int(args["node"])
                radius = args.get("radius")
                return ok_response(
                    client_id,
                    node=node,
                    neighbours=world.neighbours(
                        node, float(radius) if radius is not None else None
                    ),
                    applied_seq=world.applied_seq,
                )
            if request.kind == "route":
                route = world.route(int(args["source"]), int(args["target"]))
                return ok_response(client_id, applied_seq=world.applied_seq, **route)
            if request.kind == "coverage":
                events = np.asarray(args["events"], dtype=np.float64).reshape(-1, 2)
                fraction = world.coverage(events, float(args["radius"]))
                return ok_response(
                    client_id, coverage=round(fraction, 9), applied_seq=world.applied_seq
                )
            # digest
            return ok_response(
                client_id,
                digest=world.digest(),
                applied_seq=world.applied_seq,
                n_alive=world.n_alive,
            )
        except (KeyError, TypeError, ValueError) as err:
            return error_response(f"bad query: {err}", client_id)


# ---------------------------------------------------------------------------
# stdio transport — deterministic replay
# ---------------------------------------------------------------------------
def run_stdio(
    session: ServeSession, lines: Iterable[str], out: IO[str]
) -> None:
    """Drive the session from an NDJSON line stream, replies to ``out``.

    Deterministic by construction: the pending tick applies only on explicit
    ``{"op": "tick"}`` lines, before any read op (query/snapshot/stats) and
    at end of stream — never on a timer — so identical input streams yield
    byte-identical reply streams.
    """

    def emit_flush() -> None:
        for _, reply in session.flush():
            out.write(reply + "\n")

    for line in lines:
        if not line.strip():
            continue
        try:
            request: Optional[Request] = parse_line(line)
        except ProtocolError as err:
            out.write(error_response(str(err)) + "\n")
            continue
        assert request is not None
        if request.op in READ_OPS and len(session.batcher):
            emit_flush()
        result = session.handle_request(request)
        if result.flush_requested:
            emit_flush()
            out.write(session.tick_ack(result.client_id) + "\n")
        elif result.immediate is not None:
            out.write(result.immediate + "\n")
        if result.shutdown:
            break
    if len(session.batcher):
        emit_flush()
    out.flush()


# ---------------------------------------------------------------------------
# TCP transport — the production asyncio front-end
# ---------------------------------------------------------------------------
class ServeDaemon:
    """Asyncio TCP daemon: timer-driven ticks, per-connection reply routing."""

    def __init__(
        self,
        session: ServeSession,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._clients: Set[asyncio.StreamWriter] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping: Optional[asyncio.Event] = None
        self._failure: Optional[Exception] = None

    async def start(self) -> None:
        """Bind the listener (resolving port 0 to the chosen ephemeral port)."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(self._on_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run listener + tick loop until a ``shutdown`` op arrives.

        A tick that raises (a world that fails to apply, an injected
        :class:`~repro.faults.plan.ServeKilled`), whether the timer or a
        client's ``tick`` op drove it, stops the daemon: every connection
        closes, nothing more is applied and the error re-raises here, so no
        client is answered from a world that stopped ticking.
        """
        if self._server is None:
            await self.start()
        assert self._server is not None and self._stopping is not None
        tick_task = asyncio.ensure_future(self._tick_loop())
        try:
            await self._stopping.wait()
        finally:
            tick_task.cancel()
            self._server.close()
            if self._failure is not None:
                for writer in self._clients:
                    writer.close()
            await self._server.wait_closed()
            if self._failure is None:
                await self._flush_replies()  # drain what the last tick owes
        if self._failure is not None:
            raise self._failure

    async def _tick_loop(self) -> None:
        while self.session.running:
            await asyncio.sleep(self.session.batcher.tick_interval)
            if not await self._tick():
                return

    async def _tick(self) -> bool:
        """Flush one tick; on failure record the error, stop the daemon, return False."""
        try:
            await self._flush_replies()
        except Exception as err:
            assert self._stopping is not None
            self._failure = err
            self._stopping.set()
            return False
        return True

    async def _flush_replies(self) -> None:
        """Apply the pending tick and send each connection its replies in one write."""
        if not len(self.session.batcher):
            return
        outgoing: Dict[asyncio.StreamWriter, List[str]] = {}
        for event, reply in self.session.flush():
            writer = self._writers.pop(event.seq, None)
            if writer is not None:
                outgoing.setdefault(writer, []).append(reply)
        for writer, replies in outgoing.items():
            if writer.is_closing():
                continue
            writer.write(("\n".join(replies) + "\n").encode("utf-8"))
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients.add(writer)
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                result = self.session.handle_line(raw.decode("utf-8", errors="replace"))
                if result.event is not None:
                    self._writers[result.event.seq] = writer
                if result.flush_requested:
                    if not await self._tick():
                        break
                    writer.write(self.session.tick_ack(result.client_id).encode() + b"\n")
                    await writer.drain()
                elif result.immediate is not None:
                    writer.write(result.immediate.encode("utf-8") + b"\n")
                    await writer.drain()
                if result.shutdown:
                    assert self._stopping is not None
                    self._stopping.set()
                    break
        except ConnectionError:
            pass
        finally:
            self._clients.discard(writer)
            stale = [seq for seq, w in self._writers.items() if w is writer]
            for seq in stale:
                del self._writers[seq]
            if not writer.is_closing():
                writer.close()
