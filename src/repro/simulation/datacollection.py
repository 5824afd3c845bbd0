"""Convergecast data collection over an arbitrary topology.

The canonical WASN workload: every source node periodically reports a reading
to a sink over multihop routes.  The simulation routes every report along the
minimum-energy path of the supplied topology (Dijkstra with ``d^β`` edge
weights — the Li–Wan–Wang power metric), charges transmit/receive energy per
hop to the forwarding nodes, and reports delivery counts, energy per
delivered packet, load concentration and a simple lifetime estimate.

Running the same workload once over the full base graph and once over the
SENS overlay is how experiment E08 and the ``data_collection`` example turn
the paper's power-stretch statement into an end-to-end energy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.base import GeometricGraph
from repro.simulation.energy import EnergyLedger, EnergyModel

__all__ = ["ConvergecastResult", "run_convergecast"]


@dataclass
class ConvergecastResult:
    """Outcome of a convergecast run.

    Attributes
    ----------
    delivered: number of reports that reached the sink.
    undeliverable: number of reports from nodes disconnected from the sink.
    total_energy: total energy drawn across all nodes (joules).
    energy_per_delivered: ``total_energy / delivered`` (``inf`` if nothing arrived).
    max_node_energy: largest energy drawn by a single node (the hotspot).
    mean_hops: mean hop count of delivered reports.
    rounds_to_first_death: estimated number of reporting rounds until the most
        loaded node exhausts the ledger's initial energy (∞ when no energy was
        drawn).
    ledger: the per-node energy ledger (for detailed analysis).
    """

    delivered: int
    undeliverable: int
    total_energy: float
    energy_per_delivered: float
    max_node_energy: float
    mean_hops: float
    rounds_to_first_death: float
    ledger: EnergyLedger


def _power_weighted_paths(
    graph: GeometricGraph, sink: int, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Predecessor array and reachability mask of min-power paths towards ``sink``."""
    n = graph.n_nodes
    if graph.n_edges == 0:
        dist = np.full(n, np.inf)
        dist[sink] = 0.0
        return np.full(n, -9999, dtype=np.int64), dist
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    weights = graph.edge_lengths() ** beta
    rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    data = np.concatenate([weights, weights])
    adj = coo_matrix((data, (rows, cols)), shape=(n, n))
    dist, predecessors = dijkstra(
        adj, directed=False, indices=sink, return_predecessors=True
    )
    return predecessors.astype(np.int64), dist


def run_convergecast(
    graph: GeometricGraph,
    sink: int,
    sources: Sequence[int] | None = None,
    rounds: int = 1,
    bits_per_report: float = 2000.0,
    energy_model: EnergyModel | None = None,
    initial_energy: float = 0.5,
) -> ConvergecastResult:
    """Simulate ``rounds`` of convergecast reporting towards ``sink``.

    Parameters
    ----------
    graph:
        The communication topology (SENS overlay or the full base graph).
    sink:
        Node index of the data sink.
    sources:
        Reporting nodes (default: every node except the sink).
    rounds:
        Number of reporting rounds; every source sends one report per round.
    bits_per_report:
        Payload size per report.
    energy_model:
        Radio energy model (defaults to :class:`EnergyModel` defaults).
    initial_energy:
        Battery per node used for the lifetime estimate.
    """
    if not 0 <= sink < graph.n_nodes:
        raise ValueError("sink must be a node of the graph")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    model = energy_model or EnergyModel()
    ledger = EnergyLedger(graph.n_nodes, initial_energy=initial_energy)
    if sources is None:
        sources = [i for i in range(graph.n_nodes) if i != sink]

    predecessors, dist = _power_weighted_paths(graph, sink, model.beta)
    pts = graph.points

    delivered = 0
    undeliverable = 0
    hop_counts: list[int] = []
    for _ in range(rounds):
        for src in sources:
            src = int(src)
            if src == sink:
                continue
            if not np.isfinite(dist[src]):
                undeliverable += 1
                continue
            # Walk the predecessor chain from source to sink, charging each hop.
            curr = src
            hops = 0
            while curr != sink:
                nxt = int(predecessors[curr])
                if nxt < 0:
                    undeliverable += 1
                    break
                d = float(np.linalg.norm(pts[curr] - pts[nxt]))
                ledger.charge(curr, model.tx_cost(bits_per_report, d))
                ledger.charge(nxt, model.rx_cost(bits_per_report))
                curr = nxt
                hops += 1
            else:
                delivered += 1
                hop_counts.append(hops)

    total = ledger.total_consumed
    max_node = float(ledger.consumed.max()) if graph.n_nodes else 0.0
    per_round_max = max_node / rounds if rounds else 0.0
    return ConvergecastResult(
        delivered=delivered,
        undeliverable=undeliverable,
        total_energy=total,
        energy_per_delivered=total / delivered if delivered else float("inf"),
        max_node_energy=max_node,
        mean_hops=float(np.mean(hop_counts)) if hop_counts else 0.0,
        rounds_to_first_death=(initial_energy / per_round_max) if per_round_max > 0 else float("inf"),
        ledger=ledger,
    )
