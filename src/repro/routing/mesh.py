"""Routing on the percolated mesh (Angel, Benjamini, Ofek & Wieder; paper Figure 9).

The packet lives at an open site ``curr`` and wants to reach an open site
``target``.  The canonical shortest path is the x–y path: first fix the x
coordinate, then the y coordinate (in lattice terms: first walk along the
row, then along the column — we use the paper's (x, y) = (col, row)
convention through :class:`~repro.core.tiling.Tiling`, but this module works
directly on (row, col) lattice coordinates).

At each step the router *probes* the next site on the x–y path:

* if it is open, the packet moves there (one hop, one probe);
* otherwise the router performs a BFS through open sites starting at ``curr``
  — probing every site whose status it inspects — until it reaches an open
  site that lies on the remaining x–y path strictly closer (in remaining
  path length) to the target; the packet is then forwarded along the BFS tree
  to that site.

Angel et al. prove the expected total number of probes is O(shortest path
length); experiment E07 measures the probes / L¹-distance ratio.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple


from repro.percolation.lattice import LatticeConfiguration

__all__ = ["MeshRouteResult", "route_xy_mesh", "xy_path"]

Site = Tuple[int, int]


def xy_path(source: Site, target: Site) -> List[Site]:
    """The canonical x–y lattice path from ``source`` to ``target`` (inclusive).

    Following the paper, the path first fixes the x coordinate (the column),
    then the y coordinate (the row): (x1, y1) → (x2, y1) → (x2, y2).
    """
    r1, c1 = source
    r2, c2 = target
    path: List[Site] = [(r1, c1)]
    step_c = 1 if c2 >= c1 else -1
    for c in range(c1 + step_c, c2 + step_c, step_c) if c1 != c2 else []:
        path.append((r1, c))
    step_r = 1 if r2 >= r1 else -1
    for r in range(r1 + step_r, r2 + step_r, step_r) if r1 != r2 else []:
        path.append((r, c2))
    return path


@dataclass
class MeshRouteResult:
    """Outcome of one mesh routing attempt.

    Attributes
    ----------
    success: whether the packet reached the target.
    path: the sequence of open sites the packet visited (source first).
    hops: number of lattice hops travelled (``len(path) - 1`` on success).
    probes: number of site-status queries made (the algorithm's search cost).
    l1_distance: Manhattan distance between source and target (the length of
        the unobstructed x–y path).
    detour_ratio: ``hops / l1_distance`` (``inf`` on failure or when the
        source equals the target).
    """

    success: bool
    path: List[Site]
    hops: int
    probes: int
    l1_distance: int

    @property
    def detour_ratio(self) -> float:
        if not self.success or self.l1_distance == 0:
            return float("inf") if not self.success else 1.0
        return self.hops / self.l1_distance

    @property
    def probe_ratio(self) -> float:
        """Probes per unit of L¹ distance — the Angel-et-al overhead measure."""
        if self.l1_distance == 0:
            return float(self.probes)
        return self.probes / self.l1_distance


def _bfs_to_path_site(
    config: LatticeConfiguration,
    start: Site,
    remaining_path: List[Site],
    probes: Dict[Site, bool],
) -> Tuple[List[Site] | None, int]:
    """BFS through open sites until a site of ``remaining_path`` is reached.

    Returns ``(path_from_start_to_found_site, n_new_probes)``; the found site
    is the first site of ``remaining_path`` (in BFS order) that the search
    reaches.  ``None`` when the open cluster of ``start`` contains no site of
    the remaining path.
    """
    target_set = set(remaining_path)
    parent: Dict[Site, Site] = {start: start}
    queue: deque[Site] = deque([start])
    new_probes = 0

    def probe(site: Site) -> bool:
        nonlocal new_probes
        if site not in probes:
            probes[site] = config.is_open(site)
            new_probes += 1
        return probes[site]

    while queue:
        site = queue.popleft()
        if site in target_set and site != start:
            # Reconstruct the BFS path.
            path = [site]
            while path[-1] != start:
                path.append(parent[path[-1]])
            path.reverse()
            return path, new_probes
        for nb in config.neighbours(site):
            if nb in parent:
                continue
            if probe(nb):
                parent[nb] = site
                queue.append(nb)
    return None, new_probes


def route_xy_mesh(
    config: LatticeConfiguration, source: Site, target: Site, max_hops: int | None = None
) -> MeshRouteResult:
    """Route a packet from ``source`` to ``target`` with the Figure-9 algorithm.

    Parameters
    ----------
    config:
        The percolated-mesh configuration (open sites are good tiles).
    source, target:
        Open lattice sites.
    max_hops:
        Safety cap on travelled hops (defaults to ``8 × (L¹ + 4)``, generous
        enough for supercritical configurations while preventing pathological
        walks near criticality from running forever).

    Raises
    ------
    ValueError
        If either endpoint is closed or out of bounds.
    """
    for name, site in (("source", source), ("target", target)):
        if not config.in_bounds(site):
            raise ValueError(f"{name} {site} outside the lattice")
        if not config.is_open(site):
            raise ValueError(f"{name} {site} is a closed site")

    l1 = abs(source[0] - target[0]) + abs(source[1] - target[1])
    if max_hops is None:
        max_hops = 8 * (l1 + 4)

    probes: Dict[Site, bool] = {source: True}
    visited_path: List[Site] = [source]
    curr = source
    probe_count = 0
    hops = 0

    while curr != target and hops <= max_hops:
        # The next x–y site: fix the column first, then the row.
        r, c = curr
        if c != target[1]:
            nxt = (r, c + (1 if target[1] > c else -1))
        else:
            nxt = (r + (1 if target[0] > r else -1), c)
        if nxt not in probes:
            probes[nxt] = config.is_open(nxt)
            probe_count += 1
        if probes[nxt]:
            curr = nxt
            visited_path.append(curr)
            hops += 1
            continue
        # Next site is closed: BFS through open sites for a later x–y-path site.
        remaining = xy_path(curr, target)[1:]  # excludes curr
        bfs_path, new_probes = _bfs_to_path_site(config, curr, remaining, probes)
        probe_count += new_probes
        if bfs_path is None:
            return MeshRouteResult(False, visited_path, hops, probe_count, l1)
        detour_hops = len(bfs_path) - 1
        if hops + detour_hops > max_hops:
            return MeshRouteResult(False, visited_path, hops, probe_count, l1)
        visited_path.extend(bfs_path[1:])
        hops += detour_hops
        curr = bfs_path[-1]

    success = curr == target
    return MeshRouteResult(success, visited_path, hops, probe_count, l1)
