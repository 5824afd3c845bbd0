"""One structure-of-arrays compute layer under graphs, index, repair, shard and serve.

The hot inner loops of the stack — the grid cell-table gather, the exact
closed-ball predicate, the canonical edge splice, and the event-queue
stepping order — used to live hand-rolled inside their consumer modules, so
every optimisation had to be re-implemented four times.  This package hoists
them into one kernel vocabulary:

* :mod:`repro.kernels.layout` — the SoA buffer descriptions (positions,
  row ids, cell keys) and the CSR-style :class:`~repro.kernels.layout.CellTable`
  shared by the grid index, the dynamic layer's adopted views, and the
  shard workers' shared-memory blocks.
* :mod:`repro.kernels.ops` — the kernel API (``cell_gather``,
  ``within_ball_mask``, ``count_in_balls``, ``pair_candidates``,
  ``splice_edges``, ``step_events``), one numpy implementation each.
* :mod:`repro.kernels.reference` — the scalar loops those kernels replaced,
  with the same signatures: the byte-identity oracle of the certificate
  suites and the S06 speedup baseline, never called at runtime.
* :mod:`repro.kernels.profile` — opt-in per-kernel call/ns/bytes counters
  behind an injected clock (the S06 benchmark's attribution source).

Discipline (see CONTRIBUTING.md): every kernel keeps its scalar loop in
:mod:`repro.kernels.reference`, and is property-tested byte-identical
against it.
"""

from repro._exports import lazy_exports

__all__ = [
    "BufferSpec",
    "CellTable",
    "POSITIONS",
    "ROW_IDS",
    "CELL_KEYS",
    "cell_gather",
    "count_in_balls",
    "pair_candidates",
    "splice_edges",
    "step_events",
    "within_ball_mask",
    "KernelProfiler",
    "KernelStats",
    "active_profiler",
    "profiled",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernels.layout": ("CELL_KEYS", "POSITIONS", "ROW_IDS", "BufferSpec", "CellTable"),
    "repro.kernels.ops": (
        "cell_gather",
        "count_in_balls",
        "pair_candidates",
        "splice_edges",
        "step_events",
        "within_ball_mask",
    ),
    "repro.kernels.profile": ("KernelProfiler", "KernelStats", "active_profiler", "profiled"),
})
