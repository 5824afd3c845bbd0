"""Serving daemon for the serve workload: ``repro.serve`` over given points.

Run by :mod:`perfbench.serve_load` as its own process::

    python3 perfbench/daemon.py --points P.npy --side 11.2 --store DIR [--trace]

It builds a :class:`~repro.serve.world.LiveWorld` over the saved points
(grid backend), serves it with :class:`~repro.serve.server.ServeDaemon` at
the session defaults (tick 0.05 s, high-water 50 000) and announces
``listening <port> <edges>`` on stdout.  After a ``shutdown`` op it checks
the maintained structures against a rebuild and prints one ``result
<json>`` line.  With ``--trace`` the layer wrappers of
:mod:`perfbench.trace` and the kernel profiler are installed before the
world is built, and the result carries their aggregates.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json

import numpy as np


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--points", required=True)
    parser.add_argument("--side", type=float, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    profiling: contextlib.AbstractContextManager = contextlib.nullcontext()
    if args.trace:
        from perfbench import trace
        from repro.kernels.profile import KernelProfiler, profiled

        tracer = trace.install(trace.Tracer())
        profiler = tracer.state["profiler"] = KernelProfiler()
        profiling = profiled(profiler)

    from repro.serve import LiveWorld, ServeSession, WorldConfig
    from repro.serve.server import ServeDaemon

    with profiling:
        world = LiveWorld(np.load(args.points), WorldConfig(0.0, 0.0, args.side, args.side))
        if tracer is not None:
            tracer.state["profiler"].reset()  # count serving work, not set-up
        session = ServeSession(world, snapshot_store=args.store)

        async def serve() -> None:
            daemon = ServeDaemon(session)
            await daemon.start()
            print(f"listening {daemon.port} {world.tracker.n_edges}", flush=True)
            await daemon.serve_forever()

        asyncio.run(serve())

    result = {
        "edges": world.tracker.n_edges,
        "matches_rebuild": world.engine.matches_rebuild(),
        "tracker_matches_recompute": world.tracker.matches_recompute(),
    }
    if tracer is not None:
        result["window"] = tracer.state.get("window")
        result["final"] = tracer.snapshot()
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
