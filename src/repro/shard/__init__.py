"""Worker-side pieces of the sharded distributed build.

The orchestrating :class:`~repro.distributed.sharding.ShardedBuilder` lives
in :mod:`repro.distributed.sharding`; this package holds what runs inside a
pool worker — the per-shard construction pass (:mod:`repro.shard.worker`)
and the shared-memory lifecycle helpers (:mod:`repro.shard.shm`).
"""

from repro._exports import lazy_exports

__all__ = [
    "ShardResult",
    "ShardTask",
    "attach_block",
    "build_shard",
    "create_block",
    "run_shard_task",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.shard.shm": ("attach_block", "create_block"),
    "repro.shard.worker": ("ShardResult", "ShardTask", "build_shard", "run_shard_task"),
})
