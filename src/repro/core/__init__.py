"""Core package: the paper's SENS constructions and their analysis.

The public API most users need:

* :func:`repro.core.udg_sens.build_udg_sens` — build ``UDG-SENS(2, λ)`` from a
  point set (or sample one), returning a :class:`repro.core.result.SensNetwork`.
* :func:`repro.core.nn_sens.build_nn_sens` — build ``NN-SENS(2, k)``.
* :class:`repro.core.tiles_udg.UDGTileSpec` / :class:`repro.core.tiles_nn.NNTileSpec`
  — tile geometry (paper parameters and the repaired defaults, see DESIGN.md §2).
* :mod:`repro.core.thresholds` — the λ_s / k_s calculators behind Theorems 2.2
  and 2.4.
* :mod:`repro.core.stretch`, :mod:`repro.core.coverage`, :mod:`repro.core.power`
  — the property measurements (P2 stretch, P3 coverage, power efficiency).
"""

from repro._exports import lazy_exports

__all__ = [
    "Tiling",
    "TileIndex",
    "UDGTileSpec",
    "NNTileSpec",
    "TileClassification",
    "classify_tiles",
    "OverlayGraph",
    "OverlayRole",
    "build_overlay",
    "SensNetwork",
    "build_udg_sens",
    "build_nn_sens",
    "GoodnessCurve",
    "estimate_goodness_probability",
    "find_udg_lambda_threshold",
    "find_nn_k_threshold",
    "StretchReport",
    "measure_stretch",
    "CoverageReport",
    "empty_box_probability",
    "measure_coverage",
    "path_power",
    "power_stretch",
    "PowerReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.coverage": ("CoverageReport", "empty_box_probability", "measure_coverage"),
    "repro.core.goodness": ("TileClassification", "classify_tiles"),
    "repro.core.nn_sens": ("build_nn_sens",),
    "repro.core.overlay": ("OverlayGraph", "OverlayRole", "build_overlay"),
    "repro.core.power": ("path_power", "power_stretch", "PowerReport"),
    "repro.core.result": ("SensNetwork",),
    "repro.core.stretch": ("StretchReport", "measure_stretch"),
    "repro.core.thresholds": (
        "GoodnessCurve",
        "estimate_goodness_probability",
        "find_udg_lambda_threshold",
        "find_nn_k_threshold",
    ),
    "repro.core.tiles_nn": ("NNTileSpec",),
    "repro.core.tiles_udg": ("UDGTileSpec",),
    "repro.core.tiling": ("Tiling", "TileIndex"),
    "repro.core.udg_sens": ("build_udg_sens",),
})
