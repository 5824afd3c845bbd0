"""Finite square-lattice site-percolation configurations.

A configuration is an ``(H, W)`` boolean array: ``True`` marks an *open*
site.  Configurations come from two sources in this library:

1. Bernoulli(p) sampling (:func:`sample_site_percolation`) — used to validate
   the percolation substrate itself (experiment E09) and to drive the
   Angel-et-al routing experiments.
2. The good-tile indicator of a sensor deployment
   (``repro.core.goodness.TileClassification.good_mask``, wrapped without a
   copy by :meth:`~repro.core.goodness.TileClassification.to_lattice`) — the
   coupling at the heart of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.rng import resolve_rng

__all__ = ["LatticeConfiguration", "sample_site_percolation"]

#: The four lattice neighbour offsets (von Neumann neighbourhood).
NEIGHBOUR_OFFSETS: Tuple[Tuple[int, int], ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass
class LatticeConfiguration:
    """A site-percolation configuration on a finite patch of Z².

    Attributes
    ----------
    open_mask:
        ``(H, W)`` boolean array; ``open_mask[row, col]`` is ``True`` when the
        site ``(row, col)`` is open.
    wrap:
        If ``True`` the lattice is a torus (periodic boundaries).  The paper's
        analysis is on the infinite lattice; a torus removes boundary effects
        for cluster statistics, while open boundaries are what the routing and
        spanning experiments want.
    """

    open_mask: np.ndarray
    wrap: bool = False

    def __post_init__(self) -> None:
        mask = np.asarray(self.open_mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("open_mask must be a 2-D boolean array")
        self.open_mask = mask

    # -- basic views ---------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.open_mask.shape

    @property
    def height(self) -> int:
        return self.open_mask.shape[0]

    @property
    def width(self) -> int:
        return self.open_mask.shape[1]

    @property
    def n_sites(self) -> int:
        return self.open_mask.size

    @property
    def n_open(self) -> int:
        return int(self.open_mask.sum())

    @property
    def open_fraction(self) -> float:
        """Empirical density of open sites (an estimate of p)."""
        return self.n_open / self.n_sites if self.n_sites else 0.0

    def is_open(self, site: Tuple[int, int]) -> bool:
        r, c = site
        return bool(self.open_mask[r, c])

    def in_bounds(self, site: Tuple[int, int]) -> bool:
        r, c = site
        return 0 <= r < self.height and 0 <= c < self.width

    def sites(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all site coordinates (row, col)."""
        for r in range(self.height):
            for c in range(self.width):
                yield (r, c)

    def open_sites(self) -> np.ndarray:
        """``(n_open, 2)`` integer array of open-site coordinates."""
        rows, cols = np.nonzero(self.open_mask)
        return np.column_stack([rows, cols])

    def neighbours(self, site: Tuple[int, int]) -> list[Tuple[int, int]]:
        """Lattice neighbours of ``site`` (respecting wrap / boundaries)."""
        r, c = site
        result = []
        for dr, dc in NEIGHBOUR_OFFSETS:
            nr, nc = r + dr, c + dc
            if self.wrap:
                nr %= self.height
                nc %= self.width
            elif not (0 <= nr < self.height and 0 <= nc < self.width):
                continue
            result.append((nr, nc))
        return result

    def open_neighbours(self, site: Tuple[int, int]) -> list[Tuple[int, int]]:
        """Open lattice neighbours of ``site``."""
        return [s for s in self.neighbours(site) if self.open_mask[s]]

    def site_index(self, site: Tuple[int, int]) -> int:
        """Flatten a (row, col) site to a linear index (row-major)."""
        r, c = site
        return r * self.width + c

    def index_site(self, index: int) -> Tuple[int, int]:
        """Inverse of :meth:`site_index`."""
        return divmod(index, self.width)

    def subgraph_networkx(self):
        """The open-site adjacency graph as a :class:`networkx.Graph`.

        Nodes are (row, col) tuples of open sites; edges join open lattice
        neighbours.  Intended for cross-checking the union–find clustering and
        for small routing examples — large experiments use the array code
        paths instead.
        """
        import networkx as nx

        graph = nx.Graph()
        open_sites = list(map(tuple, self.open_sites()))
        graph.add_nodes_from(open_sites)
        for site in open_sites:
            for nb in self.open_neighbours(site):
                if site < nb:
                    graph.add_edge(site, nb)
        return graph


def sample_site_percolation(
    height: int,
    width: int,
    p: float,
    rng: np.random.Generator | None = None,
    wrap: bool = False,
) -> LatticeConfiguration:
    """Sample a Bernoulli(p) site-percolation configuration on an H×W patch."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if height < 1 or width < 1:
        raise ValueError("lattice dimensions must be positive")
    rng = resolve_rng(rng)
    mask = rng.random((height, width)) < p
    return LatticeConfiguration(mask, wrap=wrap)
