"""Tests for the coverage measurement (P3, Theorem 3.3, Corollary 3.4)."""

import numpy as np
import pytest

from repro.core.coverage import (
    empty_box_probability,
    measure_coverage,
    required_box_size,
)
from repro.geometry.primitives import Rect


class TestEmptyBoxProbability:
    def test_no_points_always_empty(self, rng):
        assert empty_box_probability(np.zeros((0, 2)), Rect(0, 0, 10, 10), 1.0, rng=rng) == 1.0

    def test_dense_grid_never_empty_for_large_boxes(self, rng):
        xs, ys = np.meshgrid(np.arange(0, 10, 0.5), np.arange(0, 10, 0.5))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        p = empty_box_probability(pts, Rect(0, 0, 10, 10), 2.0, n_boxes=200, rng=rng)
        assert p == 0.0

    def test_probability_decreases_with_box_size(self, rng):
        pts = Rect(0, 0, 20, 20).sample_uniform(100, rng)
        small = empty_box_probability(pts, Rect(0, 0, 20, 20), 0.5, n_boxes=300, rng=rng)
        large = empty_box_probability(pts, Rect(0, 0, 20, 20), 4.0, n_boxes=300, rng=rng)
        assert large <= small

    def test_box_larger_than_window_rejected(self, rng):
        with pytest.raises(ValueError):
            empty_box_probability(np.zeros((1, 2)), Rect(0, 0, 2, 2), 3.0, rng=rng)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            empty_box_probability(np.zeros((1, 2)), Rect(0, 0, 5, 5), -1.0, rng=rng)
        with pytest.raises(ValueError):
            empty_box_probability(np.zeros((1, 2)), Rect(0, 0, 5, 5), 1.0, n_boxes=0, rng=rng)

    def test_margin_keeps_boxes_away_from_boundary(self, rng):
        # Points only near the boundary: with a large margin the interior boxes are all empty.
        theta = np.linspace(0, 2 * np.pi, 100)
        pts = np.column_stack([10 + 9.9 * np.cos(theta), 10 + 9.9 * np.sin(theta)])
        p = empty_box_probability(pts, Rect(0, 0, 20, 20), 1.0, n_boxes=100, rng=rng, margin=6.0)
        assert p > 0.8


class TestMeasureCoverage:
    def test_report_rows_and_fit(self, udg_network, rng):
        report = measure_coverage(
            udg_network.sens.graph.points,
            udg_network.tiling.window,
            box_sizes=[0.5, 1.0, 1.5, 2.0, 3.0],
            n_boxes=200,
            rng=rng,
        )
        assert len(report.as_rows()) == 5
        probs = report.empty_probabilities
        # Probabilities are a non-increasing-ish sequence in box size (allow MC noise).
        assert probs[-1] <= probs[0] + 0.05

    def test_exponential_fit_on_synthetic_data(self, rng):
        """Sparse uniform points: the empty-box probability decays with ℓ and the fit sees it."""
        pts = Rect(0, 0, 30, 30).sample_uniform(250, rng)
        report = measure_coverage(
            pts, Rect(0, 0, 30, 30), box_sizes=[0.5, 1.0, 1.5, 2.0, 2.5], n_boxes=400, rng=rng
        )
        assert np.isfinite(report.decay_rate)
        assert report.decay_rate > 0
        # The fitted curve should be decreasing.
        assert report.predicted(3.0) < report.predicted(0.5)

    def test_required_box_size_inverts_fit(self, rng):
        pts = Rect(0, 0, 30, 30).sample_uniform(250, rng)
        report = measure_coverage(
            pts, Rect(0, 0, 30, 30), box_sizes=[0.5, 1.0, 1.5, 2.0, 2.5], n_boxes=400, rng=rng
        )
        ell = required_box_size(report, 0.01)
        assert ell > 0
        assert report.predicted(ell) == pytest.approx(0.01, rel=1e-6)

    def test_required_box_size_validation(self, rng):
        pts = Rect(0, 0, 10, 10).sample_uniform(2000, rng)
        report = measure_coverage(pts, Rect(0, 0, 10, 10), box_sizes=[2.0, 3.0], n_boxes=50, rng=rng)
        # Dense deployment: probabilities are all zero, no usable fit.
        with pytest.raises(ValueError):
            required_box_size(report, 0.01)
        with pytest.raises(ValueError):
            required_box_size(report, 1.5)

    def test_denser_network_covers_better(self, rng):
        """The paper's monotonicity claim: higher λ ⇒ lower empty-box probability."""
        window = Rect(0, 0, 30, 30)
        sparse = window.sample_uniform(80, rng)
        dense = window.sample_uniform(600, rng)
        p_sparse = empty_box_probability(sparse, window, 2.0, n_boxes=300, rng=rng)
        p_dense = empty_box_probability(dense, window, 2.0, n_boxes=300, rng=rng)
        assert p_dense <= p_sparse


def _loop_empty_box_probability(points, window, box_size, n_boxes, rng, margin=0.0):
    """The per-box loop the strip search replaced: the reference."""
    effective = window.shrink(margin) if margin > 0 else window
    x0 = rng.uniform(effective.xmin, effective.xmax - box_size, size=n_boxes)
    y0 = rng.uniform(effective.ymin, effective.ymax - box_size, size=n_boxes)
    empty = 0
    for bx, by in zip(x0, y0):
        inside = (
            (points[:, 0] >= bx)
            & (points[:, 0] <= bx + box_size)
            & (points[:, 1] >= by)
            & (points[:, 1] <= by + box_size)
        )
        empty += not bool(inside.any())
    return empty / n_boxes


class TestEmptyBoxPins:
    """Probabilities recorded with the per-box loop the strip search replaced.

    Same rng draws and closed comparisons, so the values are exact.
    """

    WINDOW = Rect(0.0, 0.0, 20.0, 20.0)

    def test_uniform_points(self):
        pts = np.random.default_rng(11).uniform(0, 20, size=(300, 2))
        got = [
            empty_box_probability(
                pts, self.WINDOW, side, n_boxes=250, rng=np.random.default_rng(12), margin=margin
            )
            for side in (0.5, 1.0, 2.0, 3.0)
            for margin in (0.0, 1.5)
        ]
        assert got == [0.824, 0.832, 0.468, 0.464, 0.064, 0.06, 0.0, 0.0]

    @pytest.mark.parametrize(
        "corner, expected", [("lower_left", 31 / 120), ("upper_right", 52 / 120)]
    )
    def test_points_on_box_corners(self, corner, expected):
        # Draw the boxes with the same stream, then put points exactly on
        # their corners: closed comparisons count those boxes as covered.
        side = 2.0
        rng = np.random.default_rng(13)
        x0 = rng.uniform(0.0, 20.0 - side, size=120)
        y0 = rng.uniform(0.0, 20.0 - side, size=120)
        if corner == "lower_left":
            pts = np.column_stack([x0, y0])[::2]
        else:
            pts = np.column_stack([x0 + side, y0 + side])[1::3]
        got = empty_box_probability(pts, self.WINDOW, side, n_boxes=120, rng=np.random.default_rng(13))
        assert got == expected

    def test_clustered_measure_coverage(self):
        rng = np.random.default_rng(14)
        pts = np.vstack([rng.normal(5, 0.3, size=(200, 2)), rng.uniform(0, 20, size=(40, 2))])
        pts = np.clip(pts, 0, 20)
        report = measure_coverage(
            pts, self.WINDOW, (0.5, 1.0, 2.0, 3.0), n_boxes=300, rng=np.random.default_rng(15)
        )
        assert report.empty_probabilities.tolist() == [
            0.9633333333333334,
            0.8333333333333334,
            0.62,
            0.34,
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_box_loop(self, seed):
        rng = np.random.default_rng(seed)
        lattice = np.stack(np.meshgrid(np.arange(0, 20, 0.5), np.arange(0, 20, 2.5)), -1).reshape(-1, 2)
        clustered = np.clip(rng.normal(12, 1.0, size=(150, 2)), 0, 20)
        pts = np.vstack([lattice, clustered, rng.uniform(0, 20, size=(50, 2))])
        for side in (0.25, 1.0, 2.5, 7.0):
            got = empty_box_probability(
                pts, self.WINDOW, side, n_boxes=300, rng=np.random.default_rng(seed + 10), margin=0.5
            )
            expected = _loop_empty_box_probability(
                pts, self.WINDOW, side, 300, np.random.default_rng(seed + 10), margin=0.5
            )
            assert got == expected
