"""Site percolation substrate on the square lattice Z².

The SENS constructions are analysed by coupling the tile process in R² with
site percolation on Z² (a site is *open* iff its tile is *good*).  This
package provides everything that coupling needs:

* :mod:`repro.percolation.lattice` — finite square-lattice configurations
  (random Bernoulli sampling or externally supplied open masks, e.g. the
  good-tile mask produced by :mod:`repro.core.goodness`).
* :mod:`repro.percolation.clusters` — union–find cluster labelling, cluster
  statistics, θ(p) estimation, spanning detection.
* :mod:`repro.percolation.critical` — finite-size estimation of the site
  percolation threshold (the paper uses p_c ∈ (0.592, 0.593)).
* :mod:`repro.percolation.chemical` — chemical (graph) distance inside the
  open cluster, the quantity bounded by the Antal–Pisztora theorem that the
  paper cites as Lemma 1.1.

The literature value of the threshold is exposed as
:data:`SITE_PERCOLATION_THRESHOLD`.
"""

from repro._exports import lazy_exports

#: Accepted numerical value of the site-percolation threshold on Z²
#: (the paper uses the bracket (0.592, 0.593); modern numerics give 0.592746).
SITE_PERCOLATION_THRESHOLD: float = 0.592746

__all__ = [
    "SITE_PERCOLATION_THRESHOLD",
    "LatticeConfiguration",
    "sample_site_percolation",
    "UnionFind",
    "ClusterStatistics",
    "label_clusters",
    "cluster_statistics",
    "continuum_cluster_labels",
    "continuum_largest_cluster_fraction",
    "largest_cluster_mask",
    "has_spanning_cluster",
    "theta_estimate",
    "estimate_critical_probability",
    "spanning_probability_curve",
    "chemical_distance",
    "chemical_distances_from",
    "chemical_stretch_samples",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.percolation.chemical": (
        "chemical_distance",
        "chemical_distances_from",
        "chemical_stretch_samples",
    ),
    "repro.percolation.clusters": (
        "ClusterStatistics",
        "UnionFind",
        "cluster_statistics",
        "continuum_cluster_labels",
        "continuum_largest_cluster_fraction",
        "label_clusters",
        "largest_cluster_mask",
        "has_spanning_cluster",
        "theta_estimate",
    ),
    "repro.percolation.critical": ("estimate_critical_probability", "spanning_probability_curve"),
    "repro.percolation.lattice": ("LatticeConfiguration", "sample_site_percolation"),
})
