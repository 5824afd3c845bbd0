"""Deterministic, seeded fault injection (`repro.faults`).

The subsystem follows the repo's injected-clock / injected-RNG discipline:
a :class:`FaultPlan` is sampled once from a seed (:func:`sample_plan`) and
replayed by a :class:`FaultInjector` against named injection points wired
into the production layers (``network.deliver``, ``shard.build``,
``queue.execute``, ``serve.tick``, ``serve.client``).  Fault-free runs pay
nothing and stay byte-identical; faulted runs within each layer's tolerance
envelope must *also* recover to byte-identical output — the chaos property
tests in :mod:`repro.faults.chaos` certify exactly that.
"""

from repro._exports import lazy_exports

__all__ = [
    "CRASH",
    "DELAY",
    "DROP",
    "DUPLICATE",
    "FAULT_KINDS",
    "KILL",
    "STALL",
    "Fault",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultToleranceExceeded",
    "InjectedWorkerCrash",
    "PointSpec",
    "ServeKilled",
    "sample_plan",
    "RetryError",
    "RetryPolicy",
    "call_with_retry",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.plan": (
        "CRASH",
        "DELAY",
        "DROP",
        "DUPLICATE",
        "FAULT_KINDS",
        "KILL",
        "STALL",
        "Fault",
        "FaultError",
        "FaultInjector",
        "FaultPlan",
        "FaultToleranceExceeded",
        "InjectedWorkerCrash",
        "PointSpec",
        "ServeKilled",
        "sample_plan",
    ),
    "repro.faults.retry": ("RetryError", "RetryPolicy", "call_with_retry"),
})
