"""S03 — repair fast path: diff-driven rebuild + vectorised bulk queries.

Times the two PR-4 fast paths against their pre-optimisation baselines: the
vectorised ``DynamicSpatialIndex.query_radius_many`` against the scalar
per-center loop on a dirty index (both backends), and the diff-driven
``DistributedRepairEngine`` against a from-scratch ``distributed_build`` per
step under sparse motion; a third arm reports ``TopologyTracker.update`` ms
per tick at λ=20 for n ∈ {4e2, 4e3, 4e4}.  Both fast paths must answer
*byte-identically* to their baselines and the tracker must match a
recompute — those headlines are hard-asserted.  The wall-clock floors
sit far below the nominal speedups (grid bulk ≳10×, repair ≳15× on an idle
machine at these sizes) so CI load cannot turn a timing measurement into a
spurious failure.
"""

from repro.dynamics.bench import experiment_s03_repair_fast_path


def test_s03_repair_fast_path(benchmark, emit_result):
    result = benchmark.pedantic(
        experiment_s03_repair_fast_path,
        kwargs={"n_points": 20000, "n_centers": 20000, "n_steps": 4, "repeats": 1},
        rounds=1,
        iterations=1,
    )
    emit_result(result)
    assert result.headline["bulk_results_agree"] is True
    assert result.headline["repair_results_agree"] is True
    # The tracker arm's rows are absolute ms per tick (no floor); only its
    # recompute agreement is asserted.
    assert result.headline["tracker_results_agree"] is True
    # Conservative floors (acceptance criteria): vectorised bulk >= 3x the
    # scalar loop on the grid backend, repair >= 2x rebuild-per-step.
    assert result.headline["bulk_speedup_grid"] >= 3.0
    assert result.headline["repair_speedup_vs_rebuild"] >= 2.0
    # The kd-tree bulk path is reported, not floor-asserted: its margin is
    # structurally thinner (the scalar loop already runs C queries).
    assert result.headline["bulk_speedup_kdtree"] > 0
