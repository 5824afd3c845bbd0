"""S06 — kernel-layer throughput and byte-identity against the scalar loops.

Times the four hottest kernels of the stack — ``cell_gather`` (the grid
index's bulk candidate expansion), ``within_ball_mask`` (the exact
closed-ball predicate), ``splice_edges`` (every canonical edge array) and
``step_events`` (the event queue's stepping order) — in their numpy form
(:mod:`repro.kernels.ops`) and in the scalar form they replaced
(:mod:`repro.kernels.reference`), attributing time per kernel through a
:class:`~repro.kernels.profile.KernelProfiler` rather than timing whole
queries.

Two arms:

* **Certificates** (deterministic): the numpy kernels are replayed on an
  adversarial workload — exact-boundary distances, radius-0 queries,
  subnormal offsets, duplicated and reversed edge rows, tie-heavy event
  times — and must answer byte-identically to the scalar loops.
  ``certificates_ok`` is the headline the floor file hard-asserts.
* **Throughput** (wall-clock): each kernel is driven ``repeats`` times per
  implementation at size ``n``; the headline reports the numpy speedup
  over the scalar loop per kernel (``speedup_{kernel}_numpy``).

``BENCH_S06.json`` tracks the trajectory: one record per (git revision,
headline).
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, List

import numpy as np

from repro.analysis.experiments import ExperimentResult
from repro.kernels import CellTable, KernelProfiler, ops, reference
from repro.kernels.layout import pack_bounds, pack_keys
from repro.runner.registry import register

__all__ = ["experiment_s06_kernels"]

#: The profiled kernel set (the stack's four hottest inner loops), in the
#: order :func:`_workload` returns their operands.
PROFILED_KERNELS = ("cell_gather", "within_ball_mask", "splice_edges", "step_events")

#: The timed implementations: row label -> module of same-named kernels.
_IMPLEMENTATIONS: Dict[str, ModuleType] = {"numpy": ops, "reference": reference}

#: Exact-boundary constants from the PR 2 adversarial suite.
_BOUNDARY_RADIUS = 1.9033145596437013
_SUBNORMAL = 2.2e-313


def _workload(n: int, seed: int):
    """Seeded operands at size ``n``, one argument tuple per profiled kernel."""
    rng = np.random.default_rng(seed)
    # cell_gather: a dense-ish cell table plus a query stream that mixes
    # hits and misses, each carrying an owner id.
    span = max(4, int(np.sqrt(n / 4)))
    keys = rng.integers(0, span, size=(n, 2))
    key_min, spans = pack_bounds(keys)
    table = CellTable.group_points(pack_keys(keys, key_min, spans), key_min, spans)
    queries = rng.integers(-2, int(table.cell_ids.max()) + 3, size=n)
    owners = rng.integers(0, max(1, n // 8), size=n)
    # within_ball_mask: points around one center, radius tuned to ~50% hits,
    # with exact-boundary rows spliced in so the certificate bites.
    points = rng.normal(scale=1.0, size=(n, 2))
    points[:: max(1, n // 64)] = [_BOUNDARY_RADIUS, 0.0]
    points[1 :: max(1, n // 64)] = [0.0, _SUBNORMAL]
    center = np.zeros(2)
    radius = _BOUNDARY_RADIUS
    # splice_edges: n rows in three fragments — half drawn over a narrow id
    # range, a quarter duplicating them, a quarter the duplicates reversed.
    edges = rng.integers(0, max(2, n // 8), size=(n // 2, 2))
    dup = edges[rng.integers(0, len(edges), size=n // 4)]
    parts = [edges, dup, dup[:, ::-1]]
    # step_events: quantised times force heavy (time, sequence) ties.
    times = np.round(rng.uniform(0, n / 16, size=n), 1)
    seqs = rng.permutation(n).astype(np.int64)
    return (table, queries, owners), (points, center, radius), (parts,), (times, seqs)


def _certify(workload) -> bool:
    """Byte-identity of the numpy kernels against the scalar loops."""
    for kernel, args in zip(PROFILED_KERNELS, workload):
        got = getattr(ops, kernel)(*args)
        want = getattr(reference, kernel)(*args)
        if isinstance(want, tuple):
            if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                return False
        elif not np.array_equal(got, want):
            return False
    return True


def _ns_per_call(impl: ModuleType, workload, repeats: int) -> Dict[str, float]:
    """Per-kernel mean nanoseconds of ``repeats`` calls (after one warm-up)."""
    prof = KernelProfiler()
    for kernel, args in zip(PROFILED_KERNELS, workload):
        fn = getattr(impl, kernel)
        fn(*args)
        for _ in range(repeats):
            t0 = prof.clock()
            fn(*args)
            prof.record(kernel, prof.clock() - t0, 0)
    return {kernel: s.ns / s.calls for kernel, s in prof.stats.items()}


@register("S06")
def experiment_s06_kernels(
    n: int = 100_000,
    certificate_n: int = 4_096,
    repeats: int = 3,
    seed: int = 406,
) -> ExperimentResult:
    """Kernel-layer throughput and byte-identity against the scalar loops.

    Parameters
    ----------
    n:
        Operand size of the throughput arm.
    certificate_n:
        Operand size of the deterministic byte-identity arm (kept small:
        the reference loops are scalar Python).
    repeats:
        Timed calls per kernel per implementation; per-call nanoseconds are
        the profiler total divided by ``repeats``.
    seed:
        Workload RNG seed.
    """
    if n < 1 or certificate_n < 1 or repeats < 1:
        raise ValueError("n, certificate_n and repeats must be positive")

    certificates_ok = _certify(_workload(certificate_n, seed))

    workload = _workload(n, seed + 1)
    ns = {label: _ns_per_call(impl, workload, repeats) for label, impl in _IMPLEMENTATIONS.items()}

    def speedup(label: str, kernel: str):
        t = ns[label][kernel]
        return round(ns["reference"][kernel] / t, 2) if t > 0 else None

    rows: List[Dict] = [
        {
            "kernel": kernel,
            "implementation": label,
            "ns_per_call": round(ns[label][kernel], 1),
            "items_per_s": (
                round(n / (ns[label][kernel] / 1e9), 1) if ns[label][kernel] > 0 else None
            ),
            "speedup_vs_reference": speedup(label, kernel),
            "certified": True if label == "reference" else certificates_ok,
        }
        for kernel in PROFILED_KERNELS
        for label in _IMPLEMENTATIONS
    ]
    headline: Dict = {"certificates_ok": certificates_ok}
    for kernel in PROFILED_KERNELS:
        headline[f"speedup_{kernel}_numpy"] = speedup("numpy", kernel)

    return ExperimentResult(
        experiment_id="S06",
        title="Kernel-layer throughput and byte-identity against the scalar loops",
        paper_reference="construction/maintenance hot paths (PR 2/4/7), hoisted (PR 10)",
        rows=rows,
        headline=headline,
        notes=[
            "Speedups are wall-clock and vary between reruns; certificates_ok "
            "is deterministic — the numpy kernels answered the adversarial "
            "workload (exact-boundary distances, subnormal offsets, duplicated "
            "and reversed edge rows, tie-heavy event times) byte-identically "
            "to the extracted scalar reference loops.",
            "Timings are profiler-attributed per-kernel nanoseconds "
            f"({repeats} calls per kernel per implementation at n={n}), not "
            "whole-query wall time.",
        ],
    )
