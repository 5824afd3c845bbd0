"""The serve workload: an open-loop load generator against the TCP daemon.

The schedule is generated up front from the seed's case, so the event
sequence -- and hence the final world -- does not depend on tick timing:

* each move steps a node by at most ``STEP`` per axis from where the node
  *currently* is (a random walk from its deployed position);
* moves and deletes name only initial nodes still alive in the schedule;
  ``STABLE`` nodes are never deleted and are the only ones queries name;
* inserted nodes are never referenced afterwards.

One client connection sends every line at its scheduled time, whether or
not earlier replies have arrived (an open loop), and times each operation
from when it was due to the receipt of its reply.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers
from perfbench.pipeline import percentile

__all__ = ["RECORDED_SECONDS", "Schedule", "make_schedule", "expected_digest", "run_serve"]

SIDE = 11.2
INTENSITY = 20.0
STEP = 0.3
STABLE = 256
UPDATE_RATE = 200.0  # events per second
QUERY_RATE = 100.0  # queries per second
UPDATE_MIX = (0.90, 0.05, 0.05)  # move, delete, insert
QUERY_MIX = (0.50, 0.40, 0.10)  # route, neighbours, coverage
COVERAGE_EVENTS = 50
COVERAGE_RADIUS = 0.5
#: The schedule length, in seconds, whose final digests
#: ``perfbench/digests.json`` records (BENCHMARK.json's run length).
RECORDED_SECONDS = 45
#: Latency percentiles are taken per window of this many seconds, and a
#: run reports this percentile over its windows: other tenants of the host
#: only ever slow a window, in spells of seconds to a minute, so a run's
#: median window moves with how much of the run such spells covered, its
#: fastest quarter much less.
WINDOW_S = 2.0
RUN_QUANTILE = 25
#: A run whose generator sends later than this at the 99th percentile, or
#: whose reply backlog grows, measured the generator and not the daemon.
LATENESS_BOUND_MS = 25.0
DRAIN_TIMEOUT_S = 20.0
IO_TIMEOUT_S = 60.0
#: Edge count at run end over run start must stay within this band, or the
#: schedule has changed the deployment it is meant to measure.
EDGE_BAND = (0.9, 1.1)
#: The wrapped calls inside ``ServeSession.flush`` must cover at least this
#: share of its time.
ATTRIBUTION_FLOOR = 0.95


class _Pool:
    """Ids with O(1) uniform pick and removal."""

    def __init__(self, ids: np.ndarray) -> None:
        self.items = [int(i) for i in ids]
        self.where = {v: k for k, v in enumerate(self.items)}

    def pick(self, rng: np.random.Generator) -> int:
        return self.items[int(rng.integers(len(self.items)))]

    def remove(self, item: int) -> None:
        k = self.where.pop(item)
        last = self.items.pop()
        if last != item:
            self.items[k] = last
            self.where[last] = k


@dataclass
class Schedule:
    points: np.ndarray
    due: np.ndarray  # seconds after the window opens, non-decreasing
    lines: List[bytes]
    is_update: np.ndarray
    updates: List[Tuple[str, Optional[int], Optional[Tuple[float, float]]]]


def make_schedule(case: int, seconds: float) -> Schedule:
    rng = np.random.default_rng([case, 7])
    n = int(rng.poisson(INTENSITY * SIDE * SIDE))
    points = rng.uniform(0.0, SIDE, size=(n, 2))
    current = points.copy()
    stable = rng.choice(n, size=STABLE, replace=False)
    alive = _Pool(np.arange(n))
    deletable = _Pool(np.setdiff1d(np.arange(n), stable))
    hi = float(np.nextafter(SIDE, 0.0))

    def clip(v: float) -> float:
        return min(max(v, 0.0), hi)

    ops: List[Tuple[float, Dict[str, Any], bool]] = []
    updates: List[Tuple[str, Optional[int], Optional[Tuple[float, float]]]] = []
    n_updates = int(round(UPDATE_RATE * seconds))
    for i, kind in enumerate(rng.choice(3, size=n_updates, p=UPDATE_MIX)):
        due = (i + 0.5) / UPDATE_RATE
        if kind == 0:
            node = alive.pick(rng)
            dx, dy = rng.uniform(-STEP, STEP, size=2)
            x, y = clip(current[node, 0] + dx), clip(current[node, 1] + dy)
            current[node] = (x, y)
            ops.append((due, {"op": "move", "node": node, "position": [x, y]}, True))
            updates.append(("move", node, (x, y)))
        elif kind == 1:
            node = deletable.pick(rng)
            deletable.remove(node)
            alive.remove(node)
            ops.append((due, {"op": "delete", "node": node}, True))
            updates.append(("delete", node, None))
        else:
            x, y = (float(v) for v in rng.uniform(0.0, SIDE, size=2))
            ops.append((due, {"op": "insert", "position": [x, y]}, True))
            updates.append(("insert", None, (x, y)))
    n_queries = int(round(QUERY_RATE * seconds))
    for i, kind in enumerate(rng.choice(3, size=n_queries, p=QUERY_MIX)):
        due = (i + 0.25) / QUERY_RATE
        if kind == 0:
            a, b = (int(v) for v in rng.choice(stable, size=2, replace=False))
            op = {"op": "query", "kind": "route", "source": a, "target": b}
        elif kind == 1:
            op = {"op": "query", "kind": "neighbours", "node": int(rng.choice(stable))}
        else:
            events = rng.uniform(0.0, SIDE, size=(COVERAGE_EVENTS, 2)).tolist()
            op = {"op": "query", "kind": "coverage", "events": events, "radius": COVERAGE_RADIUS}
        ops.append((due, op, False))
    ops.sort(key=lambda o: o[0])
    lines = []
    for i, (_, op, _) in enumerate(ops):
        op["id"] = i
        lines.append(json.dumps(op).encode() + b"\n")
    return Schedule(
        points=points,
        due=np.asarray([o[0] for o in ops]),
        lines=lines,
        is_update=np.asarray([o[2] for o in ops], dtype=bool),
        updates=updates,
    )


def expected_digest(schedule: Schedule) -> str:
    """The final world's digest, applying the schedule without a daemon."""
    from repro.serve import LiveWorld, Request, WorldConfig, coalesce_events
    from repro.serve.batching import PendingEvent

    world = LiveWorld(schedule.points, WorldConfig(0.0, 0.0, SIDE, SIDE))
    pending: List[PendingEvent] = []
    for seq, (op, node, position) in enumerate(schedule.updates, start=1):
        pending.append(PendingEvent(seq, Request(op=op, node=node, position=position)))
        if len(pending) == 1000 or seq == len(schedule.updates):
            batch = coalesce_events(pending, world.is_alive)
            if batch.rejected:
                raise RuntimeError(f"schedule names dead nodes: {batch.rejected[:3]}")
            world.apply(batch)
            pending = []
    return world.digest()


# ---------------------------------------------------------------------------
# Daemon process
# ---------------------------------------------------------------------------
class Daemon:
    """One ``perfbench/daemon.py`` process; always reaped by :meth:`stop`."""

    def __init__(self, root: str, points: str, store: str, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        cmd = [sys.executable, os.path.join(root, "perfbench", "daemon.py"),
               "--points", points, "--side", repr(SIDE), "--store", store]
        if traced:
            cmd.append("--trace")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
        fields = self._line("listening").split()
        self.port, self.edges_start = int(fields[1]), int(fields[2])

    def _line(self, prefix: str) -> str:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], IO_TIMEOUT_S)
        if not ready:
            raise RuntimeError(f"daemon printed no {prefix!r} line in {IO_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            raise RuntimeError(f"daemon said {line!r}, expected {prefix!r}")
        return line

    def ping(self) -> float:
        """Seconds from process start to the first ``ping`` reply."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=IO_TIMEOUT_S) as sock:
            sock.sendall(b'{"op":"ping"}\n')
            reply = sock.makefile("rb").readline()
        elapsed = time.perf_counter() - self.started
        if not json.loads(reply).get("ok"):
            raise RuntimeError(f"ping failed: {reply!r}")
        return elapsed

    def cpu_s(self) -> float:
        """CPU seconds (user + system) the daemon process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def result(self) -> Dict[str, Any]:
        return json.loads(self._line("result ")[len("result "):])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=IO_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Open-loop client
# ---------------------------------------------------------------------------
@dataclass
class Drive:
    start: float
    sent: np.ndarray
    received: np.ndarray
    ok: np.ndarray
    errors: List[Dict[str, Any]]
    backlog: List[Tuple[float, int]]  # (seconds into window, updates awaiting reply)
    after: Dict[str, Dict[str, Any]]  # post-window replies by op
    cpu_s: float  # daemon CPU seconds from window open to the last reply
    peak_rss_mb: float


async def _drive(daemon: Daemon, schedule: Schedule) -> Drive:
    clock = time.perf_counter
    reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port, limit=1 << 24)
    n = len(schedule.lines)
    sent = np.full(n, np.nan)
    received = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    errors: List[Dict[str, Any]] = []
    backlog: List[Tuple[float, int]] = []
    counts = {"replies": 0, "update_replies": 0}

    async def read_replies() -> None:
        while counts["replies"] < n:
            line = await reader.readline()
            if not line:
                return
            now = clock()
            reply = json.loads(line)
            i = reply["id"]
            received[i] = now
            ok[i] = bool(reply.get("ok"))
            if not ok[i]:
                errors.append(reply)
            counts["replies"] += 1
            counts["update_replies"] += int(schedule.is_update[i])

    reading = asyncio.ensure_future(read_replies())
    cpu_start = daemon.cpu_s()
    start = clock() + 0.05
    due = start + schedule.due
    updates_sent = 0
    i = 0
    try:
        while i < n:
            now = clock()
            while i < n and due[i] <= now:
                writer.write(schedule.lines[i])
                sent[i] = now
                updates_sent += int(schedule.is_update[i])
                i += 1
            backlog.append((now - start, updates_sent - counts["update_replies"]))
            await writer.drain()
            if i < n:
                await asyncio.sleep(max(0.0, due[i] - clock()))
        await asyncio.wait_for(asyncio.shield(reading), timeout=DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    finally:
        reading.cancel()
        try:
            await reading
        except asyncio.CancelledError:
            pass
    cpu_s = daemon.cpu_s() - cpu_start
    peak = daemon.peak_rss_mb()

    after: Dict[str, Dict[str, Any]] = {}
    for op in ("stats", "digest", "snapshot", "shutdown"):
        request = {"op": "query", "kind": "digest"} if op == "digest" else {"op": op}
        request["id"] = op
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        while True:  # skip replies to operations that were still missing
            reply = json.loads(await asyncio.wait_for(reader.readline(), IO_TIMEOUT_S))
            if reply.get("id") == op:
                break
        after[op] = reply
    writer.close()
    return Drive(start, sent, received, ok, errors, backlog, after, cpu_s, peak)


def windowed(latency: np.ndarray, due: np.ndarray, mask: np.ndarray, q: float) -> List[float]:
    """The q-th percentile within each ``WINDOW_S`` window of the run.

    The run reports the ``RUN_QUANTILE`` percentile over windows: a slow
    spell of the host moves the windows it covers, not the run's fastest
    quarter of windows.
    """
    values = []
    for start in np.arange(0.0, float(due.max()) + WINDOW_S, WINDOW_S):
        sel = mask & (due >= start) & (due < start + WINDOW_S)
        if sel.any():
            values.append(float(np.percentile(latency[sel], q)))
    return values


def _backlog_grows(backlog: List[Tuple[float, int]], seconds: float) -> bool:
    """True when the last quarter's backlog is well above the second's."""
    q2 = [b for t, b in backlog if seconds * 0.25 <= t < seconds * 0.5]
    q4 = [b for t, b in backlog if t >= seconds * 0.75]
    return max(q4, default=0) > max(2 * max(q2, default=0), 0.5 * UPDATE_RATE)


@dataclass
class Served:
    """One daemon process serving the whole schedule once."""

    drive: Drive
    final: Dict[str, Any]  # the daemon's ``result`` line
    setup_s: float
    edges_start: int
    store: str


def _serve(root: str, points: str, store: str, schedule: Schedule, traced: bool) -> Served:
    daemon = Daemon(root, points, store, traced)
    try:
        setup_s = daemon.ping()
        drive = asyncio.run(_drive(daemon, schedule))
        final = daemon.result()
    finally:
        daemon.stop()
    return Served(drive, final, setup_s, daemon.edges_start, store)


def _measure(
    schedule: Schedule, drive: Drive
) -> Tuple[int, Dict[str, List[float]], Dict[str, float]]:
    """Failed operations, the windowed latency samples, and the metrics."""
    good = ~np.isnan(drive.received) & drive.ok
    latency_ms = (drive.received - (drive.start + schedule.due)) * 1e3
    upd = good & schedule.is_update
    qry = good & ~schedule.is_update
    last_update = float(np.nanmax(np.where(upd, drive.received, np.nan)))
    samples = {
        "update_p50_ms": windowed(latency_ms, schedule.due, upd, 50),
        "update_p99_ms": windowed(latency_ms, schedule.due, upd, 99),
        "query_p50_ms": windowed(latency_ms, schedule.due, qry, 50),
        "query_p99_ms": windowed(latency_ms, schedule.due, qry, 99),
    }
    metrics = {name: percentile(values, RUN_QUANTILE) for name, values in samples.items()}
    metrics.update({
        # The schedule, not the daemon, fixes when the last reply of a
        # valid run arrives; the daemon's CPU time over the window is what
        # its own work costs.
        "pipeline_s": drive.cpu_s,
        "events_per_s": int(upd.sum()) / (last_update - drive.start),
        "peak_rss_mb": drive.peak_rss_mb,
    })
    return int((~good).sum()), samples, metrics


def _checks(
    served: Served, schedule: Schedule, seconds: float, expected: str, source: str
) -> Tuple[List[Tuple[str, bool, str]], str]:
    """Correctness and open-loop validity of one served schedule, and a note."""
    from repro.serve import LiveWorld, latest_snapshot

    drive, after = served.drive, served.drive.after
    wire = after["digest"].get("digest")
    restored = LiveWorld.from_state(latest_snapshot(served.store)["result"]["state"])
    edges_end = restored.tracker.n_edges
    overloaded = sum(1 for e in drive.errors if e.get("error") == "overloaded")
    lateness_ms = (drive.sent - (drive.start + schedule.due)) * 1e3
    late_p99 = float(np.percentile(lateness_ms[~np.isnan(lateness_ms)], 99))
    backlog_max = max((b for _, b in drive.backlog), default=0)
    edge_ratio = edges_end / served.edges_start
    checks = [
        ("wire digest == LiveWorld.from_state(snapshot).digest()",
         wire is not None and wire == restored.digest(), (wire or "")[:16]),
        ("snapshot digest == wire digest", after["snapshot"].get("digest") == wire, ""),
        (f"wire digest == {source}", wire == expected, expected[:16]),
        ("engine.matches_rebuild()", served.final["matches_rebuild"], ""),
        ("tracker.matches_recompute()", served.final["tracker_matches_recompute"], ""),
        ("generator lateness p99 within bound", late_p99 <= LATENESS_BOUND_MS,
         f"{late_p99:.3f} ms <= {LATENESS_BOUND_MS} ms"),
        ("backlog does not grow", not _backlog_grows(drive.backlog, seconds),
         f"max {backlog_max} updates awaiting reply"),
        ("no overloaded refusals", overloaded == 0 and after["stats"].get("rejected_overload") == 0,
         f"{overloaded} refused"),
        ("edge count stays in band", EDGE_BAND[0] <= edge_ratio <= EDGE_BAND[1],
         f"E {served.edges_start} -> {edges_end}"),
    ]
    note = (
        f"lateness_p99_ms={late_p99:.3f} overloaded={overloaded} backlog_max={backlog_max} "
        f"edges_start={served.edges_start} edges_end={edges_end} daemon_cpu_s={drive.cpu_s:.2f}"
    )
    return checks, note


def run_serve(
    root: str, work: str, case: int, seconds: float, traced: bool, recorded: Optional[str]
) -> Dict[str, Any]:
    """Serve the case's schedule and measure it.

    ``recorded`` is the final digest recorded for the case's
    ``RECORDED_SECONDS`` schedule; for any other length the expected digest
    is computed here, before any daemon starts.
    """
    # A traced run serves the schedule twice, untraced and then traced,
    # each for half the run: their difference is the tracing overhead.
    length = seconds / 2 if traced else seconds
    schedule = make_schedule(case, length)
    if recorded is not None and length == RECORDED_SECONDS:
        expected, source = recorded, "recorded digest"
    else:
        expected = expected_digest(schedule)
        source = f"digest of the {length:g} s schedule applied without a daemon"
    points = os.path.join(work, "points.npy")
    np.save(points, schedule.points)

    def serve(label: str, traced_daemon: bool) -> Served:
        return _serve(root, points, os.path.join(work, label), schedule, traced_daemon)

    def probe() -> float:
        daemon = Daemon(root, points, os.path.join(work, "probe"), traced=False)
        try:
            return daemon.ping()
        finally:
            daemon.stop()

    if traced:
        runs = {"untraced": serve("untraced", False), "traced": serve("traced", True)}
        setups = [runs["untraced"].setup_s]
        main = "traced"
    else:
        # Set-up is timed before, for and after the served run, so one slow
        # spell of the host does not set the median.
        setups = [probe()]
        runs = {"served": serve("served", False)}
        setups += [runs["served"].setup_s, probe()]
        main = "served"

    # -- nothing below this line is timed -------------------------------------
    measured = {label: _measure(schedule, run.drive) for label, run in runs.items()}
    _, samples, metrics = measured[main]
    samples["setup_s"] = setups
    metrics["setup_s"] = statistics.median(setups)
    checks: List[Tuple[str, bool, str]] = []
    notes = [
        f"updates={int(schedule.is_update.sum())} queries={int((~schedule.is_update).sum())} "
        f"nodes={len(schedule.points)} setup_starts={setups}"
    ]
    for label, run in runs.items():
        run_checks, note = _checks(run, schedule, length, expected, source)
        prefix = f"{label}: " if traced else ""
        checks += [(prefix + name, passed, detail) for name, passed, detail in run_checks]
        notes.append(prefix + note)
    result: Dict[str, Any] = {
        "metrics": metrics,
        "samples": samples,
        "attempted": len(schedule.lines) * len(runs),
        "failed": sum(failed for failed, _, _ in measured.values()),
        "checks": checks,
        "notes": notes,
    }
    if traced:
        untraced = measured["untraced"][2]
        window, post = runs[main].final["window"], runs[main].final["final"]
        ticks, flush_ns = window["spans"].get("serve.server.flush", [0, 0, 0])[:2]
        flush_ms = flush_ns / 1e6
        covered = layers.children_ms(window, "serve.server.flush") / flush_ms if flush_ms else 0.0
        per_layer = layers.layer_metrics(window, ticks)
        per_layer["serve.world.digest.ms"] = layers.layer_metrics(post, 1)["serve.world.digest.ms"]
        per_layer.update(
            {
                "trace.pipeline_s": metrics["pipeline_s"],
                "trace.overhead_s": metrics["pipeline_s"] - untraced["pipeline_s"],
                "trace.attributed_frac": covered,
                "trace.update_p50_ms": metrics["update_p50_ms"],
                "trace.update_p50_overhead_ms": metrics["update_p50_ms"]
                - untraced["update_p50_ms"],
            }
        )
        result["per_layer"] = per_layer
        result["self_ms_by_layer"] = {
            k: v / max(ticks, 1)
            for k, v in layers.self_ms_by_layer(window).items()
            if not k.startswith("serve.world.setup")
        }
        checks.append(
            ("wrapped calls cover serve.server.flush within 5%", covered >= ATTRIBUTION_FLOOR,
             f"{covered:.4f} of {flush_ms:.3f} ms"),
        )
    return result
