"""WASN usage substrate: energy, sensing and data-collection simulation.

The paper motivates its constructions with multihop sensing workloads
(energy-efficient relaying, collaborative target tracking).  This package
provides the simulator those workloads run on:

* :mod:`repro.simulation.energy` — the first-order radio energy model
  (electronics + ``d^β`` amplifier cost per transmitted bit) and per-node
  battery accounting.
* :mod:`repro.simulation.events` — a minimal discrete-event engine used by
  the workloads.
* :mod:`repro.simulation.sensing` — sensing fields: random event coverage and
  a moving target for the tracking workload.
* :mod:`repro.simulation.datacollection` — convergecast data collection over
  an arbitrary topology (SENS overlay or full base graph), reporting energy
  per delivered packet and network lifetime.
"""

from repro._exports import lazy_exports

__all__ = [
    "EnergyModel",
    "EnergyLedger",
    "EventQueue",
    "SimulationEvent",
    "SensingField",
    "MovingTarget",
    "coverage_fraction",
    "ConvergecastResult",
    "run_convergecast",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulation.datacollection": ("ConvergecastResult", "run_convergecast"),
    "repro.simulation.energy": ("EnergyModel", "EnergyLedger"),
    "repro.simulation.events": ("EventQueue", "SimulationEvent"),
    "repro.simulation.sensing": ("SensingField", "MovingTarget", "coverage_fraction"),
})
