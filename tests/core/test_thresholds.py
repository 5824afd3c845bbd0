"""Tests for the λ_s / k_s threshold calculators (Theorems 2.2 and 2.4)."""

import numpy as np
import pytest

from repro.core.thresholds import (
    GoodnessCurve,
    GoodnessEstimate,
    estimate_goodness_probability,
    find_nn_k_threshold,
    find_udg_lambda_threshold,
    goodness_curve_nn,
    goodness_curve_udg,
    optimise_nn_tile_parameter,
)
from repro.core.tiles_nn import NNTileSpec
from repro.core.tiles_udg import UDGTileSpec
from repro.percolation import SITE_PERCOLATION_THRESHOLD


class TestGoodnessEstimate:
    def test_probability_in_unit_interval(self, rng):
        est = estimate_goodness_probability(UDGTileSpec.default(), 10.0, trials=60, rng=rng)
        assert 0.0 <= est.probability <= 1.0
        assert est.trials == 60
        assert est.standard_error >= 0.0

    def test_zero_intensity_never_good(self, rng):
        est = estimate_goodness_probability(UDGTileSpec.default(), 0.0, trials=20, rng=rng)
        assert est.probability == 0.0
        assert sum(est.failure_histogram.values()) == 20

    def test_paper_spec_never_good(self, rng):
        est = estimate_goodness_probability(UDGTileSpec.paper(), 30.0, trials=40, rng=rng)
        assert est.probability == 0.0

    def test_failure_histogram_reasons(self, rng):
        est = estimate_goodness_probability(UDGTileSpec.default(), 2.0, trials=40, rng=rng)
        for reason in est.failure_histogram:
            assert reason == "overcrowded" or reason.startswith("missing:")

    def test_trials_validation(self, rng):
        with pytest.raises(ValueError):
            estimate_goodness_probability(UDGTileSpec.default(), 1.0, trials=0, rng=rng)

    def test_monotone_in_lambda(self):
        """P(good) must (statistically) increase with λ for the UDG spec."""
        rng = np.random.default_rng(3)
        spec = UDGTileSpec.default()
        low = estimate_goodness_probability(spec, 5.0, trials=150, rng=rng).probability
        high = estimate_goodness_probability(spec, 30.0, trials=150, rng=rng).probability
        assert high >= low

    def test_nn_occupancy_cap_enforced(self, rng):
        """With a tiny k the cap dominates and the tile is (almost) never good."""
        spec = NNTileSpec.paper()
        est = estimate_goodness_probability(spec, 1.0, k=10, trials=30, rng=rng, parameter=10)
        assert est.probability == 0.0
        assert "overcrowded" in est.failure_histogram


    def test_seeded_estimates_are_pinned(self):
        """The single-tile verdict (shared with decide_tiles) reproduces recorded estimates.

        Values recorded with the per-tile rule the shared verdict replaced:
        same probability and the same failure histogram, insertion order
        included, for an uncapped UDG spec and an NN spec whose cap binds.
        """
        est = estimate_goodness_probability(
            UDGTileSpec.default(), 12.0, trials=300, rng=np.random.default_rng(11)
        )
        assert est.probability == pytest.approx(253 / 300)
        assert list(est.failure_histogram.items()) == [
            ("missing:E_right", 13),
            ("missing:E_left", 7),
            ("missing:E_top", 12),
            ("missing:E_bottom", 13),
            ("missing:C0", 2),
        ]
        est = estimate_goodness_probability(
            NNTileSpec.default(), 1.0, k=170, trials=200, rng=np.random.default_rng(12), parameter=170
        )
        assert est.probability == pytest.approx(93 / 200)
        assert list(est.failure_histogram.items()) == [
            ("missing:C0", 11),
            ("overcrowded", 53),
            ("missing:C_right", 16),
            ("missing:C_top", 9),
            ("missing:C_bottom", 7),
            ("missing:C_left", 10),
            ("missing:E_right", 1),
        ]


class TestGoodnessCurve:
    def test_threshold_crossing_found(self):
        curve = GoodnessCurve(
            "lambda",
            (
                GoodnessEstimate(1.0, 0.1, 0.01, 100, {}),
                GoodnessEstimate(2.0, 0.55, 0.01, 100, {}),
                GoodnessEstimate(3.0, 0.8, 0.01, 100, {}),
            ),
        )
        assert curve.threshold_crossing(0.593) == 3.0
        assert curve.threshold_crossing(0.05) == 1.0

    def test_threshold_crossing_none(self):
        curve = GoodnessCurve("lambda", (GoodnessEstimate(1.0, 0.2, 0.01, 10, {}),))
        assert curve.threshold_crossing(0.9) is None

    def test_as_rows(self):
        curve = GoodnessCurve("k", (GoodnessEstimate(188, 0.6, 0.02, 50, {}),))
        rows = curve.as_rows()
        assert rows[0]["k"] == 188
        assert rows[0]["p_good"] == 0.6

    def test_curve_udg_sweep(self, rng):
        curve = goodness_curve_udg(UDGTileSpec.default(), [5.0, 25.0], trials=60, rng=rng)
        assert len(curve.estimates) == 2
        assert curve.parameters.tolist() == [5.0, 25.0]


class TestThresholdSearch:
    def test_udg_lambda_threshold_exists_for_default_spec(self):
        rng = np.random.default_rng(11)
        lambda_s, curve = find_udg_lambda_threshold(
            UDGTileSpec.default(), intensities=[5, 10, 15, 20, 25, 30], trials=120, rng=rng
        )
        assert lambda_s is not None
        assert 10 <= lambda_s <= 30
        # The probability at the crossing really exceeds the target.
        crossing = [e for e in curve.estimates if e.parameter == lambda_s][0]
        assert crossing.probability > SITE_PERCOLATION_THRESHOLD

    def test_udg_threshold_none_for_paper_spec(self):
        rng = np.random.default_rng(12)
        lambda_s, _ = find_udg_lambda_threshold(
            UDGTileSpec.paper(), intensities=[5, 20], trials=40, rng=rng
        )
        assert lambda_s is None

    def test_nn_k_threshold_close_to_paper(self):
        """The paper pairs k=188 with a=0.893; our Monte-Carlo k_s should land nearby."""
        rng = np.random.default_rng(13)
        k_s, curve = find_nn_k_threshold(
            NNTileSpec.paper(), k_values=[140, 160, 180, 200, 220], trials=80, rng=rng
        )
        assert k_s is not None
        assert 160 <= k_s <= 220

    def test_optimise_nn_tile_parameter_returns_spec(self):
        rng = np.random.default_rng(14)
        spec = optimise_nn_tile_parameter(150, trials=20, rng=rng, a_grid=[0.6, 0.8, 1.0])
        assert isinstance(spec, NNTileSpec)
        assert spec.a in (0.6, 0.8, 1.0)

    def test_goodness_curve_nn_with_factory(self):
        rng = np.random.default_rng(15)
        def factory(k):
            return NNTileSpec(a=0.8)

        curve = goodness_curve_nn(factory, [100, 150], trials=20, rng=rng)
        assert len(curve.estimates) == 2
        assert curve.parameter_name == "k"
