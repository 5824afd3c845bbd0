"""Threshold calculators behind Theorems 2.2 and 2.4.

The paper's argument is: if the probability that a tile is *good* exceeds the
site-percolation threshold p_c ≈ 0.5927, the coupled site process is
supercritical, hence the SENS overlay contains an infinite component; the
smallest parameter value (λ for UDG, k for NN) achieving this is the
construction's threshold (λ_s / k_s) and doubles as an upper bound on the
continuum-percolation critical value.

This module estimates P(tile good) as a function of the parameter by
Monte-Carlo simulation of single tiles (the goodness event only involves
points inside the tile, so single-tile sampling is exact), backs it up with
the independence-based analytic approximation from the tile specs, and
searches for the threshold crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.goodness import failure_reasons, goodness_verdict
from repro.core.tiles_base import TileSpec
from repro.core.tiles_nn import NNTileSpec
from repro.core.tiles_udg import UDGTileSpec
from repro.geometry.poisson import poisson_points
from repro.geometry.primitives import Rect
from repro.percolation import SITE_PERCOLATION_THRESHOLD
from repro.rng import resolve_rng

__all__ = [
    "GoodnessEstimate",
    "GoodnessCurve",
    "estimate_goodness_probability",
    "goodness_curve_udg",
    "goodness_curve_nn",
    "find_udg_lambda_threshold",
    "find_nn_k_threshold",
    "optimise_nn_tile_parameter",
]


@dataclass(frozen=True)
class GoodnessEstimate:
    """Monte-Carlo estimate of P(tile good) at one parameter setting.

    Attributes
    ----------
    parameter:
        The swept parameter value (λ for UDG, k for NN).
    probability:
        Estimated probability that a single tile is good.
    standard_error:
        Binomial standard error of the estimate.
    trials:
        Number of simulated tiles.
    failure_histogram:
        Counts of the reasons bad tiles failed (``"overcrowded"`` /
        ``"missing:<region>"``) — the diagnostic that explains *which*
        constraint binds at a given parameter value.
    """

    parameter: float
    probability: float
    standard_error: float
    trials: int
    failure_histogram: dict[str, int]


@dataclass(frozen=True)
class GoodnessCurve:
    """P(tile good) as a function of a swept parameter."""

    parameter_name: str
    estimates: tuple[GoodnessEstimate, ...]

    @property
    def parameters(self) -> np.ndarray:
        return np.asarray([e.parameter for e in self.estimates])

    @property
    def probabilities(self) -> np.ndarray:
        return np.asarray([e.probability for e in self.estimates])

    def threshold_crossing(self, target: float = SITE_PERCOLATION_THRESHOLD) -> float | None:
        """Smallest swept parameter whose goodness probability exceeds ``target``.

        Returns ``None`` when the curve never crosses.  (No interpolation: the
        paper reports the smallest *tested* value exceeding the threshold,
        which is what we mirror.)
        """
        for est in sorted(self.estimates, key=lambda e: e.parameter):
            if est.probability > target:
                return est.parameter
        return None

    def as_rows(self) -> list[dict[str, float]]:
        """Table rows (one per parameter value) for the benchmark printers."""
        return [
            {
                self.parameter_name: e.parameter,
                "p_good": e.probability,
                "stderr": e.standard_error,
                "trials": e.trials,
            }
            for e in self.estimates
        ]


def _single_tile_good(
    spec: TileSpec, intensity: float, k: int | None, rng: np.random.Generator
) -> tuple[bool, str]:
    """Simulate one tile and return (good?, failure reason)."""
    half = spec.tile_side / 2.0
    pts = poisson_points(Rect(-half, -half, half, half), intensity, rng)
    masks = spec.classify_points(pts)
    counts = np.array([[np.count_nonzero(masks[name]) for name in spec.region_names]])
    good, failure = goodness_verdict(spec, spec.max_points_per_tile(k), np.array([len(pts)]), counts)
    return bool(good[0]), failure_reasons(spec)[failure[0]]


def estimate_goodness_probability(
    spec: TileSpec,
    intensity: float,
    k: int | None = None,
    trials: int = 400,
    rng: np.random.Generator | None = None,
    parameter: float | None = None,
) -> GoodnessEstimate:
    """Monte-Carlo estimate of P(tile good) for one parameter setting.

    Parameters
    ----------
    spec:
        Tile specification.
    intensity:
        Poisson intensity of the deployment (λ).
    k:
        NN parameter (ignored by UDG specs).
    trials:
        Number of independent tiles to simulate.
    rng:
        Random generator.
    parameter:
        The value recorded as the swept parameter in the result (defaults to
        ``intensity`` for UDG-style sweeps and must be set to ``k`` by NN
        sweeps).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = resolve_rng(rng)
    hits = 0
    failures: dict[str, int] = {}
    for _ in range(trials):
        good, reason = _single_tile_good(spec, intensity, k, rng)
        if good:
            hits += 1
        else:
            failures[reason] = failures.get(reason, 0) + 1
    p = hits / trials
    se = float(np.sqrt(max(p * (1 - p), 0.0) / trials))
    return GoodnessEstimate(
        parameter=float(parameter if parameter is not None else intensity),
        probability=p,
        standard_error=se,
        trials=trials,
        failure_histogram=failures,
    )


def goodness_curve_udg(
    spec: UDGTileSpec,
    intensities: Sequence[float],
    trials: int = 400,
    rng: np.random.Generator | None = None,
) -> GoodnessCurve:
    """P(tile good) vs λ for a UDG tile spec."""
    rng = resolve_rng(rng)
    estimates = tuple(
        estimate_goodness_probability(spec, float(lam), k=None, trials=trials, rng=rng)
        for lam in intensities
    )
    return GoodnessCurve("lambda", estimates)


def goodness_curve_nn(
    spec_factory: Callable[[int], NNTileSpec] | NNTileSpec,
    k_values: Sequence[int],
    intensity: float = 1.0,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> GoodnessCurve:
    """P(tile good) vs k for NN tile specs.

    ``spec_factory`` may be a fixed :class:`NNTileSpec` (same geometry for
    every k, as in the paper's single (k, a) pair) or a callable ``k → spec``
    so that the tile parameter a can be co-optimised with k
    (:func:`optimise_nn_tile_parameter`).
    """
    rng = resolve_rng(rng)
    estimates = []
    for k in k_values:
        spec = spec_factory(int(k)) if callable(spec_factory) else spec_factory
        estimates.append(
            estimate_goodness_probability(
                spec, intensity, k=int(k), trials=trials, rng=rng, parameter=float(k)
            )
        )
    return GoodnessCurve("k", tuple(estimates))


def find_udg_lambda_threshold(
    spec: UDGTileSpec | None = None,
    intensities: Sequence[float] | None = None,
    trials: int = 400,
    target: float = SITE_PERCOLATION_THRESHOLD,
    rng: np.random.Generator | None = None,
) -> tuple[float | None, GoodnessCurve]:
    """λ_s: the smallest probed λ whose tile-goodness probability exceeds ``target``.

    Returns ``(lambda_s, curve)``; ``lambda_s`` is ``None`` when no probed
    value crosses (e.g. for the degenerate paper-parameter spec, whose
    goodness probability is identically zero).
    """
    spec = spec or UDGTileSpec.default()
    if intensities is None:
        intensities = np.concatenate([np.arange(1.0, 10.0, 1.0), np.arange(10.0, 42.0, 2.0)])
    curve = goodness_curve_udg(spec, intensities, trials=trials, rng=rng)
    return curve.threshold_crossing(target), curve


def find_nn_k_threshold(
    spec: NNTileSpec | None = None,
    k_values: Sequence[int] | None = None,
    intensity: float = 1.0,
    trials: int = 200,
    target: float = SITE_PERCOLATION_THRESHOLD,
    rng: np.random.Generator | None = None,
    optimise_a: bool = False,
) -> tuple[float | None, GoodnessCurve]:
    """k_s: the smallest probed k whose tile-goodness probability exceeds ``target``.

    With ``optimise_a=True`` the tile parameter a is re-optimised for every k
    (a coarse grid search), which is how the paper arrives at the pairing
    k = 188, a = 0.893.
    """
    if k_values is None:
        k_values = list(range(120, 261, 10))
    if optimise_a:
        factory: Callable[[int], NNTileSpec] = lambda k: optimise_nn_tile_parameter(
            k, intensity=intensity, trials=max(trials // 4, 40), rng=rng
        )
        curve = goodness_curve_nn(factory, k_values, intensity=intensity, trials=trials, rng=rng)
    else:
        spec = spec or NNTileSpec.default()
        curve = goodness_curve_nn(spec, k_values, intensity=intensity, trials=trials, rng=rng)
    return curve.threshold_crossing(target), curve


def optimise_nn_tile_parameter(
    k: int,
    a_grid: Sequence[float] | None = None,
    intensity: float = 1.0,
    trials: int = 60,
    rng: np.random.Generator | None = None,
) -> NNTileSpec:
    """Pick the tile parameter a maximising P(tile good) for a given k.

    The trade-off: a larger a makes each of the nine regions easier to occupy
    but pushes the expected tile occupancy ``λ·(10a)²`` against the cap
    ``k/2``.  A coarse grid search is all the paper's procedure needs.
    """
    rng = resolve_rng(rng)
    if a_grid is None:
        # Centre the grid on the occupancy-balanced value a* where the expected
        # count equals half the cap: λ·(10a)² = k/4  ⇒  a* = sqrt(k)/20 for λ=1.
        a_star = float(np.sqrt(k / intensity) / 20.0)
        a_grid = np.linspace(max(0.3 * a_star, 0.05), 1.4 * a_star, 8)
    best_spec = None
    best_p = -1.0
    for a in a_grid:
        spec = NNTileSpec(a=float(a))
        est = estimate_goodness_probability(spec, intensity, k=k, trials=trials, rng=rng, parameter=k)
        if est.probability > best_p:
            best_p = est.probability
            best_spec = spec
    assert best_spec is not None
    return best_spec
