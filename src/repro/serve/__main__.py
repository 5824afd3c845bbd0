"""CLI entry point: ``python -m repro.serve``.

Starts a serving daemon over a fresh random deployment (``--n``/``--seed``)
or a restored snapshot (``--restore``).  Two transports:

* default: asyncio TCP on ``--host``/``--port`` (port 0 picks an ephemeral
  port; the chosen one is announced on stdout as
  ``serve: listening on HOST:PORT``);
* ``--stdio``: read requests from stdin, write replies to stdout,
  deterministically (ticks fire only on explicit ``{"op": "tick"}`` lines
  and before reads) — the transport the CI smoke and replay tooling use.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

import numpy as np

from repro.serve.batching import DEFAULT_HIGH_WATER, DEFAULT_TICK_INTERVAL
from repro.serve.server import ServeDaemon, ServeSession, run_stdio
from repro.serve.snapshot import restore_world
from repro.serve.world import LiveWorld, WorldConfig


def _radius(text: str) -> float:
    """argparse type of ``--radius``: a finite, non-negative float."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"radius must be a finite non-negative number, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived topology-serving daemon (streamed updates, "
        "maintained overlay, latency SLOs).",
    )
    transport = parser.add_argument_group("transport")
    transport.add_argument(
        "--stdio",
        action="store_true",
        help="serve stdin->stdout deterministically instead of TCP",
    )
    transport.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    transport.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral, announced on stdout)"
    )
    world = parser.add_argument_group("initial deployment")
    world.add_argument("--n", type=int, default=400, help="initial node count")
    world.add_argument("--seed", type=int, default=0, help="deployment RNG seed")
    world.add_argument(
        "--window",
        type=float,
        nargs=4,
        default=(0.0, 0.0, 15.0, 15.0),
        metavar=("XMIN", "YMIN", "XMAX", "YMAX"),
        help="deployment window bounds",
    )
    world.add_argument(
        "--radius", type=_radius, default=None, help="UDG connection radius (default: tile spec)"
    )
    daemon = parser.add_argument_group("daemon")
    daemon.add_argument(
        "--tick-interval",
        type=float,
        default=DEFAULT_TICK_INTERVAL,
        help="seconds the daemon sleeps between applied ticks; an update's reply "
        "waits for the next tick, so this sets most of its latency, and each tick "
        "costs daemon CPU; the 20 ms default is what the tick's fixed cost "
        "affords (default: %(default)s)",
    )
    daemon.add_argument(
        "--high-water",
        type=int,
        default=DEFAULT_HIGH_WATER,
        help="pending-event bound before backpressure rejections",
    )
    daemon.add_argument(
        "--snapshot-store",
        default=None,
        help="result-store path (JSONL dir or .sqlite) for the 'snapshot' op",
    )
    daemon.add_argument(
        "--restore",
        action="store_true",
        help="start from the newest snapshot in --snapshot-store instead of a fresh deployment",
    )
    return parser


def build_world(args: argparse.Namespace) -> LiveWorld:
    if args.restore:
        if not args.snapshot_store:
            raise SystemExit("--restore requires --snapshot-store")
        return restore_world(args.snapshot_store)
    xmin, ymin, xmax, ymax = args.window
    config = WorldConfig(
        window_xmin=xmin,
        window_ymin=ymin,
        window_xmax=xmax,
        window_ymax=ymax,
        radius=args.radius,
    )
    rng = np.random.default_rng(args.seed)
    positions = np.column_stack(
        [
            rng.uniform(xmin, xmax, size=args.n),
            rng.uniform(ymin, ymax, size=args.n),
        ]
    )
    return LiveWorld(positions, config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    world = build_world(args)
    session = ServeSession(
        world,
        tick_interval=args.tick_interval,
        high_water=args.high_water,
        snapshot_store=args.snapshot_store,
    )
    if args.stdio:
        run_stdio(session, sys.stdin, sys.stdout)
        return 0

    async def serve() -> None:
        daemon = ServeDaemon(session, host=args.host, port=args.port)
        await daemon.start()
        print(f"serve: listening on {args.host}:{daemon.port}", flush=True)
        await daemon.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
