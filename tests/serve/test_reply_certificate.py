"""Reply certificate: every byte the stdio transport writes for a seeded replay.

A seeded walk-from-current-position schedule of moves, inserts, deletes and
explicit ticks, interleaved with every read the daemon serves — routes,
neighbours at the default radius, at an explicit radius, at the UDG radius
spelled out, at radius 0 and of a dead node, coverage over events, over no
events and at a non-positive radius, and digests — is replayed in process
through :func:`~repro.serve.server.run_stdio`.  The SHA-256 of each reply
class must equal the recorded one: however the reads are answered, the
replies may not change by a byte.
"""

from __future__ import annotations

import hashlib
import io
import json
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.serve.server import ServeSession, run_stdio
from repro.serve.world import LiveWorld, WorldConfig

SIDE = 8.0
N_NODES = 700
N_TICKS = 24
STEP = 0.25
STABLE = 64

#: SHA-256 of the replies of each class, per backend.
RECORDED = {
    "grid": {
        "coverage": "ed3b865a9a5c12664171a19046dcbc6c82b51074db9003f91646083bbaa17154",
        "delete": "23082f0ca14ccb281cc5823e0e71d2fd5025041fa0ab42c4aadab79634d9628a",
        "digest": "2374ccc5cadd1313a4aa1321844149465b17192bd0dc0889c210fe14627588c8",
        "insert": "35f537119fa6b8be0b330a8f385b4a23f7b20259029d8cc99ae558c075446166",
        "move": "434f920528b24f2b9dbe5f0d4a2432d14543d2096232e4445e81d2ccd642cab6",
        "neighbours": "72b34b48f630e1e906993c1ee6d6ce4f8b6a8e4b26c726bc2bc95ccc6c074318",
        "route": "df8a9cd9102ec2a9c65695b37ce63b07b6e814c0fb21435ded56e880887401e7",
        "tick": "9e8174c3c5875dfe81869c5f050c69194462a16d559be21ce1d6c68a3117887c",
    },
    "kdtree": {
        "coverage": "ed3b865a9a5c12664171a19046dcbc6c82b51074db9003f91646083bbaa17154",
        "delete": "23082f0ca14ccb281cc5823e0e71d2fd5025041fa0ab42c4aadab79634d9628a",
        "digest": "67c22225599a512ba98cdaacf767377adde94df720f62f15ab1dae1ee1210993",
        "insert": "35f537119fa6b8be0b330a8f385b4a23f7b20259029d8cc99ae558c075446166",
        "move": "434f920528b24f2b9dbe5f0d4a2432d14543d2096232e4445e81d2ccd642cab6",
        "neighbours": "72b34b48f630e1e906993c1ee6d6ce4f8b6a8e4b26c726bc2bc95ccc6c074318",
        "route": "df8a9cd9102ec2a9c65695b37ce63b07b6e814c0fb21435ded56e880887401e7",
        "tick": "9e8174c3c5875dfe81869c5f050c69194462a16d559be21ce1d6c68a3117887c",
    },
}


def _schedule(seed: int) -> List[str]:
    """Request lines: each tick's updates, an explicit tick, then the reads."""
    rng = np.random.default_rng(seed)
    current = {i: tuple(p) for i, p in enumerate(rng.uniform(0.0, SIDE, size=(N_NODES, 2)).tolist())}
    stable = sorted(int(i) for i in rng.choice(N_NODES, size=STABLE, replace=False))
    next_id, dead = N_NODES, []
    hi = float(np.nextafter(SIDE, 0.0))
    lines: List[Dict[str, Any]] = []

    def clip(v: float) -> float:
        return min(max(v, 0.0), hi)

    for tick in range(N_TICKS):
        alive = sorted(current)
        for node in rng.choice(alive, size=12, replace=False).tolist():
            dx, dy = rng.uniform(-STEP, STEP, size=2).tolist()
            x, y = clip(current[node][0] + dx), clip(current[node][1] + dy)
            current[node] = (x, y)
            lines.append({"op": "move", "node": node, "position": [x, y]})
        if tick % 2 == 0:
            victim = int(rng.choice([n for n in alive if n not in stable]))
            del current[victim]
            dead.append(victim)
            lines.append({"op": "delete", "node": victim})
        if tick % 3 == 1:
            x, y = rng.uniform(0.0, SIDE, size=2).tolist()
            current[next_id] = (x, y)
            next_id += 1
            lines.append({"op": "insert", "position": [x, y]})
        lines.append({"op": "tick"})
        for _ in range(3):
            a, b = (int(v) for v in rng.choice(stable, size=2, replace=False))
            lines.append({"op": "query", "kind": "route", "source": a, "target": b})
        for node in rng.choice(stable, size=3, replace=False).tolist():
            lines.append({"op": "query", "kind": "neighbours", "node": node})
        node = int(rng.choice(stable))
        for radius in (0.5, 1.0, 0.0, 2.5):
            lines.append({"op": "query", "kind": "neighbours", "node": node, "radius": radius})
        if dead:
            lines.append({"op": "query", "kind": "neighbours", "node": dead[-1]})
        events = rng.uniform(-0.5, SIDE + 0.5, size=(20, 2)).tolist()
        for radius in (0.25, 0.5, 1.5):
            lines.append({"op": "query", "kind": "coverage", "events": events, "radius": radius})
        lines.append({"op": "query", "kind": "coverage", "events": [], "radius": 0.5})
        lines.append({"op": "query", "kind": "coverage", "events": events, "radius": 0.0})
        lines.append({"op": "query", "kind": "coverage", "events": events, "radius": -1.0})
        if tick % 6 == 5:
            lines.append({"op": "query", "kind": "digest"})
    out = []
    for i, payload in enumerate(lines):
        payload["id"] = f"{payload.get('kind', payload['op'])}:{i}"
        out.append(json.dumps(payload))
    return out


def _reply_digests(backend: str) -> Dict[str, str]:
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, SIDE, size=(N_NODES, 2))
    world = LiveWorld(points, WorldConfig(window_xmax=SIDE, window_ymax=SIDE, backend=backend))
    out = io.StringIO()
    run_stdio(ServeSession(world), _schedule(5), out)
    hashes: Dict[str, Any] = {}
    for line in out.getvalue().splitlines():
        kind = json.loads(line)["id"].split(":")[0]
        hashes.setdefault(kind, hashlib.sha256()).update(line.encode("utf-8") + b"\n")
    return {kind: h.hexdigest() for kind, h in sorted(hashes.items())}


@pytest.mark.parametrize("backend", ["grid", "kdtree"])
def test_replies_equal_the_recorded_certificate(backend: str) -> None:
    assert _reply_digests(backend) == RECORDED[backend]
