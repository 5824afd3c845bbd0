"""repro.runner — registry-driven parallel experiment runner.

The subsystem turns the E01–E12 entry points (and any future workload) into
uniquely-parameterised, cacheable, parallelisable jobs, following the
py_experimenter model: an experiment is a pure function of its parameter row.

* :mod:`repro.runner.registry` — ``@register("E01")`` decorator; derives a
  frozen params dataclass from the function signature.
* :mod:`repro.runner.grid` — ``grid(trials=[...], seed=range(...))`` →
  cartesian parameter sweep.
* :mod:`repro.runner.executor` — ``make_jobs`` (SeedSequence-spawned per-job
  seeds) and ``run_jobs`` (ProcessPoolExecutor fan-out, resume, failure log).
* :mod:`repro.runner.store` — the abstract latest-wins ``ResultStore``
  contract plus the append-only JSON-lines backend (``JsonlStore``), keyed by
  ``(experiment_id, params)``; ``ResultStore(path)`` dispatches on the path.
* :mod:`repro.runner.sqlite_store` — the SQLite/WAL backend
  (``SqliteStore``): one file, concurrent writers, same semantics.
* :mod:`repro.runner.queue` — pull-worker job queue on the SQLite backend
  (``JobQueue`` lease protocol + ``run_worker`` drain loop).
* :mod:`repro.runner.sweep` — TOML sweep configurations
  (``load_sweep("sweep.toml")`` → jobs).
* :mod:`repro.runner.cli` — ``python -m repro.runner run E01 --jobs 8``,
  ``... sweep sweep.toml [--enqueue]``, ``... worker --store x.sqlite``.
"""

from repro._exports import lazy_exports
from repro.runner.grid import grid

__all__ = [
    "DEFAULT_STORE_DIR",
    "Experiment",
    "ExperimentRegistry",
    "ExperimentSweep",
    "Job",
    "JobOutcome",
    "JobQueue",
    "JsonlStore",
    "QueuedJob",
    "REGISTRY",
    "ResultStore",
    "RunReport",
    "SqliteStore",
    "StoreCorruptionWarning",
    "SweepConfig",
    "WorkerReport",
    "canonical_json",
    "get_experiment",
    "grid",
    "jsonify",
    "load_builtin_experiments",
    "load_sweep",
    "make_jobs",
    "params_key",
    "register",
    "run_jobs",
    "run_worker",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runner.executor": (
        "Job",
        "JobOutcome",
        "RunReport",
        "load_builtin_experiments",
        "make_jobs",
        "run_jobs",
    ),
    "repro.runner.queue": ("JobQueue", "QueuedJob", "WorkerReport", "run_worker"),
    "repro.runner.registry": (
        "REGISTRY",
        "Experiment",
        "ExperimentRegistry",
        "get_experiment",
        "register",
    ),
    "repro.runner.serialize": ("canonical_json", "jsonify", "params_key"),
    "repro.runner.sqlite_store": ("SqliteStore",),
    "repro.runner.store": (
        "DEFAULT_STORE_DIR",
        "JsonlStore",
        "ResultStore",
        "StoreCorruptionWarning",
    ),
    "repro.runner.sweep": ("ExperimentSweep", "SweepConfig", "load_sweep"),
})
