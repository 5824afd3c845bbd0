"""Coverage measurement (property P3, Theorem 3.3, Corollary 3.4).

The paper's coverage statement: the probability that an ℓ×ℓ box contains no
point of the SENS network decays exponentially in ℓ (with a sharper decay for
denser deployments).  :func:`empty_box_probability` estimates that probability
for one box size by placing many boxes inside the window;
:func:`measure_coverage` sweeps box sizes and fits the decay rate, and
:func:`required_box_size` inverts the fit the way Corollary 3.4 does (find ℓ
such that the empty-box probability drops below a target 1/n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.primitives import Rect, as_points
from repro.rng import resolve_rng

__all__ = [
    "CoverageReport",
    "empty_box_probability",
    "measure_coverage",
    "required_box_size",
]


#: Padded strip cells per block of boxes in :func:`empty_box_probability`.
_COVERAGE_BLOCK_CELLS = 1 << 20


def empty_box_probability(
    points: np.ndarray,
    window: Rect,
    box_size: float,
    n_boxes: int = 500,
    rng: np.random.Generator | None = None,
    margin: float = 0.0,
) -> float:
    """Fraction of randomly placed ℓ×ℓ boxes containing no point.

    Boxes are placed uniformly at random with their lower-left corner such
    that the whole box (plus an optional ``margin`` keeping boxes away from
    the window boundary) lies inside ``window``.

    Raises
    ------
    ValueError
        If the box does not fit inside the window.
    """
    if box_size <= 0:
        raise ValueError("box_size must be positive")
    if n_boxes < 1:
        raise ValueError("n_boxes must be positive")
    rng = resolve_rng(rng)
    pts = as_points(points)
    effective = window.shrink(margin) if margin > 0 else window
    if box_size > min(effective.width, effective.height):
        raise ValueError("box_size larger than the (margin-shrunk) window")
    x0 = rng.uniform(effective.xmin, effective.xmax - box_size, size=n_boxes)
    y0 = rng.uniform(effective.ymin, effective.ymax - box_size, size=n_boxes)
    if len(pts) == 0:
        return 1.0
    # Each box's closed x-range is one contiguous strip of the points sorted
    # by x; the strips are padded to the longest one and tested on y
    # together, in blocks of boxes that bound the padded temporary.
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    ys = pts[order, 1]
    starts = np.searchsorted(xs, x0, side="left")
    stops = np.searchsorted(xs, x0 + box_size, side="right")
    width = max(int((stops - starts).max()), 1)
    block = max(1, _COVERAGE_BLOCK_CELLS // width)
    offsets = np.arange(width)
    empty = 0
    for lo in range(0, n_boxes, block):
        hi = min(lo + block, n_boxes)
        slots = starts[lo:hi, None] + offsets
        in_strip = slots < stops[lo:hi, None]
        y = ys[np.minimum(slots, len(ys) - 1)]
        by = y0[lo:hi, None]
        hit = in_strip & (y >= by) & (y <= by + box_size)
        empty += int(np.count_nonzero(~hit.any(axis=1)))
    return empty / n_boxes


@dataclass
class CoverageReport:
    """Empty-box probability as a function of box size, plus a decay fit.

    Attributes
    ----------
    box_sizes: probed box sides ℓ.
    empty_probabilities: estimated P(box of side ℓ is empty).
    decay_rate: the fitted c in P ≈ A·exp(−c·ℓ) over the strictly positive
        observations (``nan`` when fewer than two positive observations
        exist — e.g. every probed box size is already always covered).
    amplitude: the fitted A.
    """

    box_sizes: np.ndarray
    empty_probabilities: np.ndarray
    decay_rate: float
    amplitude: float

    def as_rows(self) -> list[dict[str, float]]:
        return [
            {"box_size": float(side), "p_empty": float(p)}
            for side, p in zip(self.box_sizes, self.empty_probabilities)
        ]

    def predicted(self, box_size: float) -> float:
        """Fitted P(empty) at an arbitrary box size (exponential model)."""
        if not np.isfinite(self.decay_rate):
            return float("nan")
        return float(self.amplitude * np.exp(-self.decay_rate * box_size))


def measure_coverage(
    points: np.ndarray,
    window: Rect,
    box_sizes: Sequence[float],
    n_boxes: int = 500,
    rng: np.random.Generator | None = None,
    margin: float = 0.0,
) -> CoverageReport:
    """Sweep box sizes, estimate empty-box probabilities, fit the exponential decay."""
    rng = resolve_rng(rng)
    sizes = np.asarray(sorted(float(s) for s in box_sizes))
    probs = np.asarray(
        [
            empty_box_probability(points, window, s, n_boxes=n_boxes, rng=rng, margin=margin)
            for s in sizes
        ]
    )
    positive = probs > 0
    if positive.sum() >= 2:
        # Linear fit of log P against ℓ: log P = log A − c·ℓ.
        coeffs = np.polyfit(sizes[positive], np.log(probs[positive]), 1)
        decay_rate = float(-coeffs[0])
        amplitude = float(np.exp(coeffs[1]))
    else:
        decay_rate = float("nan")
        amplitude = float("nan")
    return CoverageReport(sizes, probs, decay_rate, amplitude)


def required_box_size(report: CoverageReport, target_probability: float) -> float:
    """Box size ℓ at which the fitted empty-box probability falls to ``target_probability``.

    This is the Corollary 3.4 planning question ("ℓ ≥ c·log n makes the
    empty-box probability < 1/n") answered from measured data.

    Raises
    ------
    ValueError
        If the target is not in (0, 1) or the report has no usable decay fit.
    """
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must lie in (0, 1)")
    if not np.isfinite(report.decay_rate) or report.decay_rate <= 0:
        raise ValueError("coverage report has no usable exponential fit")
    return float(np.log(report.amplitude / target_probability) / report.decay_rate)
