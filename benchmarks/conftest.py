"""Shared helpers for the benchmark suite.

Every benchmark regenerates one experiment from the DESIGN.md index (E01–E12),
prints the resulting table and persists the structured rows through the
:mod:`repro.runner` result store (``benchmarks/results/store/``): each emitted
result is keyed by its ``(experiment_id, params)`` pair, an unchanged result
is a no-op on rerun, and the JSON-lines records are what
``python -m repro.runner show`` reads.  The store is the single source of the
numbers that back EXPERIMENTS.md — re-render any experiment's table with
``repro.analysis.tables.store_table(store, "E01")`` or export everything via
``ResultStore.to_dataframe()`` (pandas optional); the old per-experiment
``results/<id>.txt`` side files are gone.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess

import numpy
import pytest
import scipy

from repro.analysis.experiments import ExperimentResult
from repro.analysis.tables import format_table
from repro.kernels import POSITIONS
from repro.runner.serialize import canonical_json, params_key, result_to_payload
from repro.runner.store import ResultStore

REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
STORE_DIR = RESULTS_DIR / "store"


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _append_trajectory(result: ExperimentResult) -> None:
    """Append an S-series headline record to the repo-root BENCH_<ID>.json.

    The BENCH files are the perf *trajectory*: one compact record per
    (git revision, headline) — wall-clock speedups, throughput and the
    deterministic agreement certificates — checked in so regressions show
    up as history, not folklore.  Records whose revision and headline both
    match an existing entry are not re-appended, so reruns at one commit
    stay no-ops.

    Every record carries the numpy and scipy versions, the CPU count and
    the position dtype, so a dependency bump or a different machine shows
    up as such instead of as a performance change.  (Older records carry a
    ``kernel_backend`` field instead of the versions.)
    """
    if not result.experiment_id.startswith("S"):
        return
    path = REPO_ROOT / f"BENCH_{result.experiment_id}.json"
    record = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "n": result.params.get(
            "n_points", result.params.get("n_nodes", result.params.get("n"))
        ),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "dtype": str(POSITIONS.dtype),
        "headline": result.headline,
        "git_rev": _git_rev(),
        # Provenance stamp on a measurement record, not simulation state.
        "date": datetime.date.today().isoformat(),  # repro: allow[REPRO301] provenance stamp
    }
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    for existing in records:
        if (
            existing.get("git_rev") == record["git_rev"]
            and existing.get("headline") == record["headline"]
        ):
            return
    records.append(record)
    body = "[\n" + ",\n".join(canonical_json(r, strict=False) for r in records) + "\n]\n"
    path.write_text(body, encoding="utf-8")


@pytest.fixture(scope="session")
def emit_result():
    """Return a callable that prints and persists an ExperimentResult."""

    RESULTS_DIR.mkdir(exist_ok=True)
    store = ResultStore(STORE_DIR)

    def _emit(result: ExperimentResult) -> ExperimentResult:
        lines = [
            f"{result.experiment_id} — {result.title}",
            f"paper reference: {result.paper_reference}",
            "",
            format_table(result.rows),
            "",
            "headline: " + ", ".join(f"{k}={v}" for k, v in result.headline.items()),
        ]
        if result.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in result.notes)
        print("\n" + "\n".join(lines))

        record = {
            "key": params_key(result.experiment_id, result.params),
            "experiment_id": result.experiment_id,
            "params": result.params,
            "status": "ok",
            "result": result_to_payload(result),
        }
        existing = store.get(record["key"])
        # Compare canonical lines, not dicts: NaN payloads never compare equal.
        if existing is None or canonical_json(existing, strict=False) != canonical_json(
            record, strict=False
        ):
            store.put(record)
        _append_trajectory(result)
        return result

    return _emit
