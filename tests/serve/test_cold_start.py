"""Cold start: the serving path loads only the modules it runs.

A killed daemon comes back only through a cold start (restore, rebuild the
edge set and the overlay), so what the serving path imports bounds its
recovery time.  It loads no scipy, networkx or ``numpy.random``, and none of
the library's batch, analysis and experiment modules.  Each case runs in a
fresh interpreter, because the test process itself has long since imported
every optional dependency.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
import subprocess
import sys
import textwrap

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

HEAVY = ("scipy", "networkx")

#: Library modules the serving path never runs, and packages none of whose
#: modules it runs (the package itself included).
DENIED_MODULES = (
    "repro.runner.executor",
    "repro.runner.queue",
    "repro.runner.sweep",
    "repro.runner.registry",
    "repro.runner.store",
    "repro.core.coverage",
    "repro.core.nn_sens",
    "repro.core.thresholds",
    "repro.core.stretch",
    "repro.core.udg_sens",
    "repro.graphs.knn",
)
DENIED_PACKAGES = (
    "repro.faults",
    "repro.percolation",
    "repro.routing",
    "repro.analysis",
    "repro.simulation",
    "repro.shard",
)
MAX_REPRO_MODULES = 40

SERVE_SCRIPT = textwrap.dedent(
    """
    import io
    import json
    import sys

    import numpy as np

    from repro.serve import LiveWorld, ServeSession, WorldConfig
    from repro.serve.server import run_stdio

    side = 4.0
    # An additive-recurrence point set: numpy.random must stay unloaded.
    points = side * (np.arange(1, 201)[:, None] * np.array([0.7548776662, 0.5698402910]) % 1.0)
    world = LiveWorld(points, WorldConfig(0.0, 0.0, side, side))
    restored = LiveWorld.from_state(world.state())
    assert restored.digest() == world.digest()

    reps = sorted(restored.engine.result().representatives.values())
    lines = [
        {"op": "move", "node": 0, "position": [1.0, 1.0]},
        {"op": "move", "node": 7, "position": [3.5, 0.5]},
        {"op": "insert", "position": [2.0, 2.0]},
        {"op": "delete", "node": 5},
        {"op": "tick"},
        {"op": "query", "kind": "route", "source": reps[0], "target": reps[-1]},
        {"op": "query", "kind": "neighbours", "node": 0},
        {"op": "query", "kind": "coverage", "events": [[1.0, 1.0], [9.0, 9.0]], "radius": 0.5},
        {"op": "move", "node": 1, "position": [0.25, 3.75]},
        {"op": "tick"},
        {"op": "query", "kind": "route", "source": reps[0], "target": reps[-1]},
        {"op": "query", "kind": "digest"},
    ]
    out = io.StringIO()
    run_stdio(ServeSession(restored), [json.dumps(line) for line in lines], out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    loaded = sorted(m for m in sys.modules if m.split(".")[0] in HEAVY)
    library = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
    print(json.dumps({
        "replies": replies,
        "loaded": loaded,
        "library": library,
        "numpy_random": "numpy.random" in sys.modules,
        "good": len(reps),
    }))
    """
)

FIRST_USE_SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import numpy as np

    from repro.geometry.index import KDTreeIndex
    from repro.graphs.base import GeometricGraph
    from repro.graphs import metrics

    before = sorted(m for m in sys.modules if m.split(".")[0] in HEAVY)
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 3.0], [3.2, 3.0]])
    pairs = KDTreeIndex(pts).query_pairs(1.0).tolist()
    labels = metrics.component_labels(GeometricGraph(pts, np.array(pairs))).tolist()
    after = "scipy" in sys.modules
    print(json.dumps({"before": before, "pairs": pairs, "labels": labels, "after": after}))
    """
)


@functools.lru_cache(maxsize=None)
def _run(script: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", f"HEAVY = {HEAVY!r}\n" + script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_serving_path_loads_no_scipy_or_networkx():
    report = _run(SERVE_SCRIPT)
    assert report["loaded"] == []
    replies = report["replies"]
    assert replies and all(reply["ok"] for reply in replies), replies
    assert report["good"] >= 2
    routes = [reply for reply in replies if "hops" in reply]
    assert len(routes) == 2 and all(route["success"] for route in routes)
    assert [reply["n_alive"] for reply in replies if reply.get("ticked")] == [200, 200]
    assert len(replies[-1]["digest"]) == 64


def test_serving_path_loads_only_the_modules_it_runs():
    report = _run(SERVE_SCRIPT)
    library = report["library"]
    denied = [
        m for m in library if m in DENIED_MODULES or ".".join(m.split(".")[:2]) in DENIED_PACKAGES
    ]
    assert denied == []
    assert len(library) <= MAX_REPRO_MODULES, library
    assert report["numpy_random"] is False


def test_scipy_backed_calls_work_on_first_use():
    report = _run(FIRST_USE_SCRIPT)
    assert report["before"] == []
    assert report["pairs"] == [[0, 1], [2, 3]]
    assert report["labels"] == [0, 0, 1, 1]
    assert report["after"] is True
