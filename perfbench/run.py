"""The repository benchmark: one command, two workloads, every metric named.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-full --seed 1 --seconds 45 --trace 0

Workloads: ``pipeline-full`` (see :mod:`perfbench.pipeline`) and
``serve-churn`` (see :mod:`perfbench.serve_load`).  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` wraps each layer's public
calls and reports the per-layer metrics instead.  Every line before the
last is for people: the machine stamp, notes, checks, a self-time table
and one ``record:`` line with everything.  The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The seed selects one of ``CASES`` recorded input cases (``seed % CASES``),
so every run's outputs can be checked against a digest recorded in
``perfbench/digests.json``; refresh those with ``perfbench/record.py``
only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = 16
WORKLOADS = ("pipeline-full", "serve-churn")


def stamp() -> Dict[str, Any]:
    """Machine and dependency stamp carried by every record."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    sources = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                sources.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sources.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "git_rev": rev,
        "src_sha256": sources.hexdigest(),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as handle:
        recorded = json.load(handle)

    from perfbench import pipeline, serve_load

    case = args.seed % CASES
    traced = bool(args.trace)
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        if args.workload == "pipeline-full":
            out = pipeline.run_pipeline(case, args.seconds, traced)
            expected = recorded["pipeline-full"][str(case)]
            out["checks"].append(
                ("every pass's digest == recorded digest",
                 all(d == expected for d in out["digests"]), expected[:16])
            )
            out["failed"] = 0
        else:
            out = serve_load.run_serve(
                ROOT, work, case, args.seconds, traced, recorded["serve-churn"].get(str(case))
            )
    except Exception:
        traceback.print_exc()
        print("perfbench: the run failed; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    kind = "per_layer" if traced else "end_to_end"
    values = out["per_layer"] if traced else out["metrics"]
    metrics = {}
    for spec in contract[kind]:
        if spec["name"] not in values:
            raise KeyError(f"{kind} metric {spec['name']!r} was not measured")
        metrics[spec["name"]] = {"value": float(values[spec["name"]]), "unit": spec["unit"]}

    info = stamp()
    print(f"stamp: {json.dumps(info, sort_keys=True)}")
    for note in out["notes"]:
        print(f"note: {note}")
    correct = True
    for name, passed, detail in out["checks"]:
        correct &= bool(passed)
        print(f"check: {'PASS' if passed else 'FAIL'} {name} {detail}")
    if "self_ms_by_layer" in out:
        unit = "pass" if args.workload == "pipeline-full" else "tick"
        print(f"self time per {unit}, by layer:")
        for layer, ms in sorted(out["self_ms_by_layer"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<36} {ms:12.3f} ms")
    print(f"error_rate {out['failed'] / out['attempted']:.6g} fraction")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "case": case,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": info,
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
        "samples": out["samples"],
    }
    print(f"record: {json.dumps(record, sort_keys=True)}")
    if not correct:
        print("perfbench: a correctness or validity check FAILED", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
