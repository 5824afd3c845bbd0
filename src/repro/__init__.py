"""repro — reproduction of *Sparse power-efficient topologies for wireless ad
hoc sensor networks* (Amitabha Bagchi, IPPS 2010).

The library builds the paper's two overlay constructions — ``UDG-SENS(2, λ)``
on unit-disk graphs and ``NN-SENS(2, k)`` on k-nearest-neighbour graphs — on
top of from-scratch substrates for geometric random graphs, site percolation
on Z², distributed (local-information) construction, percolated-mesh routing
and a sensor-network usage simulator.

Quick start::

    import numpy as np
    from repro import build_udg_sens, Rect

    net = build_udg_sens(intensity=20.0, window=Rect(0, 0, 40, 40), seed=7)
    print(net.summary())

See README.md for the architecture overview, DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Rect",
    "Disc",
    "PoissonProcess",
    "poisson_points",
    "build_udg",
    "build_knn",
    "UDGTileSpec",
    "NNTileSpec",
    "SensNetwork",
    "build_udg_sens",
    "build_nn_sens",
    "find_udg_lambda_threshold",
    "find_nn_k_threshold",
    "measure_stretch",
    "measure_coverage",
    "power_stretch",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.coverage": ("measure_coverage",),
    "repro.core.nn_sens": ("build_nn_sens",),
    "repro.core.power": ("power_stretch",),
    "repro.core.result": ("SensNetwork",),
    "repro.core.stretch": ("measure_stretch",),
    "repro.core.thresholds": ("find_nn_k_threshold", "find_udg_lambda_threshold"),
    "repro.core.tiles_nn": ("NNTileSpec",),
    "repro.core.tiles_udg": ("UDGTileSpec",),
    "repro.core.udg_sens": ("build_udg_sens",),
    "repro.geometry.poisson": ("PoissonProcess", "poisson_points"),
    "repro.geometry.primitives": ("Rect", "Disc"),
    "repro.graphs.knn": ("build_knn",),
    "repro.graphs.udg": ("build_udg",),
})
