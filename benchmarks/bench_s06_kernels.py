"""S06 — kernel-layer throughput and byte-identity against the scalar loops.

Times the four hottest kernels (``cell_gather``, ``within_ball_mask``,
``splice_edges``, ``step_events``) in numpy form and in the scalar form
they replaced (``repro.kernels.reference``), with profiler-attributed
per-kernel timings, and replays an adversarial workload (exact-boundary distances,
subnormal offsets, duplicated and reversed edge rows, tie-heavy event
times) through both.

Floors: the byte-identity certificate is hard-asserted (deterministic);
the numpy kernels must beat the scalar reference by ≥2× on every profiled
kernel at this size (measured margins are 10–100×, so CI load cannot turn
this into a spurious failure).  The headline trajectory is tracked in
``BENCH_S06.json``.
"""

from repro.kernels.bench import PROFILED_KERNELS, experiment_s06_kernels


def test_s06_kernels(benchmark, emit_result):
    result = benchmark.pedantic(
        experiment_s06_kernels,
        kwargs={"n": 100_000},
        rounds=1,
        iterations=1,
    )
    emit_result(result)
    # Deterministic certificate: the numpy kernels answer the adversarial
    # workload byte-identically to the extracted scalar reference loops.
    assert result.headline["certificates_ok"] is True
    # The vectorised kernels must decisively beat the scalar loops they
    # replaced, on every profiled kernel.
    for kernel in PROFILED_KERNELS:
        assert result.headline[f"speedup_{kernel}_numpy"] >= 2.0
