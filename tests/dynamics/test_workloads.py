"""Tests for the M01/M02/F01/H01 dynamic workloads and the S02/S03 benches."""

import json

import pytest

from repro.dynamics.bench import (
    experiment_s02_incremental_maintenance,
    experiment_s03_repair_fast_path,
)
from repro.dynamics.workloads import (
    experiment_f01_failure,
    experiment_h01_heterogeneous,
    experiment_m01_mobility,
    experiment_m02_mobile_distributed_build,
)
from repro.runner import make_jobs, run_jobs
from repro.runner.serialize import result_to_payload

TINY_M01 = dict(intensity=2.0, window_side=8.0, n_steps=5, n_pairs=8, seed=77)
TINY_M02 = dict(intensity=3.0, window_side=8.0, n_steps=5, seed=80)
TINY_F01 = dict(intensity=3.0, window_side=8.0, horizon=12.0, observe_every=4.0, n_events=80, seed=78)
TINY_H01 = dict(intensity=3.0, window_side=8.0, n_steps=5, seed=79)


class TestM01:
    def test_small_run_shape_and_consistency(self):
        result = experiment_m01_mobility(**TINY_M01)
        assert len(result.rows) == 5
        assert result.headline["maintenance_consistent"] is True
        assert 0.0 <= result.headline["mean_lcc_fraction"] <= 1.0
        if result.headline["mean_stretch"] is not None:
            assert result.headline["mean_stretch"] >= 1.0
        churn = sum(r["edges_added"] + r["edges_removed"] for r in result.rows)
        assert result.headline["total_edge_churn"] == churn
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_deterministic_per_seed(self):
        a = experiment_m01_mobility(**TINY_M01)
        b = experiment_m01_mobility(**TINY_M01)
        assert a.rows == b.rows and a.headline == b.headline

    @pytest.mark.parametrize("model", ["walk", "drift"])
    def test_other_models_run(self, model):
        result = experiment_m01_mobility(model=model, **TINY_M01)
        assert result.headline["maintenance_consistent"] is True

    def test_degenerate_deployment_yields_null_headline(self):
        result = experiment_m01_mobility(intensity=0.0, window_side=5.0, n_steps=3, seed=1)
        assert result.headline["mean_stretch"] is None
        assert any("degenerate" in note for note in result.notes)
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            experiment_m01_mobility(radius=0.0)
        with pytest.raises(ValueError):
            experiment_m01_mobility(n_steps=0)
        with pytest.raises(ValueError, match="unknown mobility model"):
            experiment_m01_mobility(model="teleport")


class TestM02:
    def test_small_run_shape_and_consistency(self):
        result = experiment_m02_mobile_distributed_build(**TINY_M02)
        assert len(result.rows) == 5
        assert result.headline["repair_consistent"] is True
        assert result.headline["repair_messages_total"] >= 0
        assert result.headline["rebuild_messages_per_step"] > 0
        assert 0.0 <= result.headline["mean_good_fraction"] <= 1.0
        churn = sum(r["overlay_churn"] for r in result.rows)
        assert result.headline["total_overlay_churn"] == churn
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_deterministic_per_seed(self):
        a = experiment_m02_mobile_distributed_build(**TINY_M02)
        b = experiment_m02_mobile_distributed_build(**TINY_M02)
        assert a.rows == b.rows and a.headline == b.headline

    def test_churn_free_run_is_consistent(self):
        result = experiment_m02_mobile_distributed_build(churn_count=0, **TINY_M02)
        assert result.headline["repair_consistent"] is True
        assert all(row["n_alive"] == result.rows[0]["n_alive"] for row in result.rows)

    def test_degenerate_deployment_yields_null_headline(self):
        result = experiment_m02_mobile_distributed_build(
            intensity=0.0, window_side=5.0, n_steps=3, seed=1
        )
        assert result.headline["repair_consistent"] is None
        assert any("degenerate" in note for note in result.notes)
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            experiment_m02_mobile_distributed_build(move_fraction=0.0)
        with pytest.raises(ValueError):
            experiment_m02_mobile_distributed_build(move_fraction=1.5)
        with pytest.raises(ValueError):
            experiment_m02_mobile_distributed_build(churn_count=-1)
        with pytest.raises(ValueError):
            experiment_m02_mobile_distributed_build(n_steps=0)


class TestF01:
    def test_monotone_decay_and_headline(self):
        result = experiment_f01_failure(**TINY_F01)
        alive = [row["n_alive"] for row in result.rows]
        assert alive == sorted(alive, reverse=True)
        assert result.headline["n_failed"] >= 0
        assert result.headline["final_coverage"] is not None
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_outages_accelerate_failure(self):
        base = experiment_f01_failure(**TINY_F01)
        stormy = experiment_f01_failure(**{**TINY_F01, "outage_rate": 0.3, "outage_radius": 2.5})
        assert stormy.headline["n_failed"] >= base.headline["n_failed"]

    def test_deterministic_per_seed(self):
        a = experiment_f01_failure(**TINY_F01)
        b = experiment_f01_failure(**TINY_F01)
        assert a.rows == b.rows and a.headline == b.headline

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            experiment_f01_failure(observe_every=0.0)
        with pytest.raises(ValueError):
            experiment_f01_failure(coverage_target=0.0)
        with pytest.raises(ValueError):
            experiment_f01_failure(n_events=0)


class TestH01:
    def test_decay_shrinks_radii_and_connectivity(self):
        result = experiment_h01_heterogeneous(decay_rate=0.1, **TINY_H01)
        radii = [row["mean_radius"] for row in result.rows]
        assert radii == sorted(radii, reverse=True)
        assert len(result.rows) == 6  # initial observation + n_steps
        # Union links can only be more permissive than bidirectional ones.
        for row in result.rows:
            assert row["lcc_union"] >= row["lcc_bidirectional"] - 1e-12
            assert row["n_edges_union"] >= row["n_edges_bidirectional"]
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_deterministic_per_seed(self):
        a = experiment_h01_heterogeneous(**TINY_H01)
        b = experiment_h01_heterogeneous(**TINY_H01)
        assert a.rows == b.rows and a.headline == b.headline

    def test_zero_spread_zero_decay_is_static_homogeneous(self):
        result = experiment_h01_heterogeneous(
            spread=0.0, decay_rate=0.0, decay_spread=0.0, **TINY_H01
        )
        first, last = result.rows[0], result.rows[-1]
        assert first["n_edges_bidirectional"] == last["n_edges_bidirectional"]
        assert first["n_edges_union"] == first["n_edges_bidirectional"]
        assert result.headline["mean_asymmetry_gap"] == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            experiment_h01_heterogeneous(decay_rate=-0.1)
        with pytest.raises(ValueError):
            experiment_h01_heterogeneous(decay_spread=1.0)
        with pytest.raises(ValueError):
            experiment_h01_heterogeneous(spread=1.5)


class TestS02:
    def test_small_run_agrees_and_reports_speedups(self):
        result = experiment_s02_incremental_maintenance(
            n_points=400, n_steps=3, repeats=1, seed=5
        )
        assert result.headline["results_agree"] is True
        assert isinstance(result.headline["mobility_speedup_vs_rebuild"], float)
        assert isinstance(result.headline["churn_speedup_vs_rebuild"], float)
        assert len(result.rows) == 4
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            experiment_s02_incremental_maintenance(n_points=0)
        with pytest.raises(ValueError):
            experiment_s02_incremental_maintenance(step_fraction=0.0)


class TestS03:
    def test_small_run_agrees_on_both_arms(self):
        result = experiment_s03_repair_fast_path(
            n_points=400, n_centers=800, n_steps=3, repeats=1, seed=6, tracker_sizes=(300,)
        )
        assert result.headline["bulk_results_agree"] is True
        assert result.headline["repair_results_agree"] is True
        assert result.headline["tracker_results_agree"] is True
        assert isinstance(result.headline["bulk_speedup_grid"], float)
        assert isinstance(result.headline["repair_speedup_vs_rebuild"], float)
        assert {row["arm"] for row in result.rows} == {"bulk", "repair", "tracker"}
        json.dumps(result_to_payload(result), allow_nan=False)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            experiment_s03_repair_fast_path(n_centers=0)
        with pytest.raises(ValueError):
            experiment_s03_repair_fast_path(move_fraction=0.0)
        with pytest.raises(ValueError):
            experiment_s03_repair_fast_path(churn_count=-1)
        with pytest.raises(ValueError):
            experiment_s03_repair_fast_path(tracker_sizes=(0,))


class TestRunnerIntegration:
    def test_workloads_ride_the_executor_and_store(self, tmp_path):
        jobs = (
            make_jobs("M01", [TINY_M01])
            + make_jobs("M02", [TINY_M02])
            + make_jobs("H01", [TINY_H01])
        )
        report = run_jobs(jobs, store=tmp_path / "store")
        assert report.all_ok and report.n_ok == 3
        # Second run resumes from the store without recomputing.
        report = run_jobs(jobs, store=tmp_path / "store")
        assert report.n_cached == 3

    def test_registered_ids_resolvable(self):
        from repro.runner import REGISTRY, load_builtin_experiments

        load_builtin_experiments()
        for eid in ("M01", "M02", "F01", "H01", "S02", "S03"):
            assert eid in REGISTRY
