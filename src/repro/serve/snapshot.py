"""Snapshot/restore of a live world through the result-store machinery.

Snapshots ride the existing :class:`~repro.runner.store.ResultStore`
contract instead of inventing a file format: each snapshot is one canonical
JSON record (``experiment_id="SERVE"``, keyed by the applied event sequence
number) appended to a JSONL directory or SQLite store — so snapshots are
latest-wins, append-only, crash-tolerant (a torn append costs one record,
never the store) and inspectable with the same tooling as experiment
results.

The record carries the world's canonical state *and* its digest.
:func:`restore_world` rebuilds the world from the state and verifies the
rebuilt digest equals the stored one — the byte-identical-resume
certificate: a daemon killed and restarted from its last snapshot continues
from exactly the world it had applied, and replaying the event tail (seqs
past the snapshot's) reproduces the uninterrupted run byte for byte (the
kill/restore test asserts this end to end).
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.serve.world import LiveWorld

if TYPE_CHECKING:
    from repro.runner.store import ResultStore

__all__ = ["SNAPSHOT_EXPERIMENT_ID", "save_snapshot", "latest_snapshot", "restore_world"]

#: The experiment id snapshot records file under in the store.
SNAPSHOT_EXPERIMENT_ID = "SERVE"


def _open(store: Union[str, pathlib.Path, ResultStore]) -> ResultStore:
    from repro.runner.store import ResultStore  # a snapshot, not the daemon's start, needs it

    return store if isinstance(store, ResultStore) else ResultStore(store)


def save_snapshot(
    store: Union[str, pathlib.Path, ResultStore], world: LiveWorld
) -> Dict[str, Any]:
    """Persist the world's canonical state; returns the stored record.

    Keyed by the applied sequence number, so re-snapshotting an unchanged
    world overwrites (latest-wins) its own record rather than growing the
    index, and the newest snapshot is simply the max-seq record.
    """
    opened = _open(store)
    try:
        state = world.state()
        record = {
            "key": f"snapshot-{int(state['seq']):012d}",
            "experiment_id": SNAPSHOT_EXPERIMENT_ID,
            "status": "ok",
            "params": {"seq": int(state["seq"])},
            "result": {"state": state, "digest": world.digest()},
        }
        return opened.put(record)
    finally:
        if opened is not store:
            opened.close()


def latest_snapshot(
    store: Union[str, pathlib.Path, ResultStore]
) -> Optional[Dict[str, Any]]:
    """The highest-seq snapshot record, or ``None`` when the store has none."""
    opened = _open(store)
    try:
        opened.refresh()
        records = opened.records(experiment_id=SNAPSHOT_EXPERIMENT_ID, status="ok")
    finally:
        if opened is not store:
            opened.close()
    if not records:
        return None
    return max(records, key=lambda record: record.get("params", {}).get("seq", -1))


def restore_world(store: Union[str, pathlib.Path, ResultStore]) -> LiveWorld:
    """Rebuild the newest snapshot's world, verifying byte-identity.

    Raises ``ValueError`` when the store holds no snapshot or when the
    restored world's digest does not match the one stored with it (a
    corrupted or version-skewed snapshot must fail loudly, not serve a
    silently different world).
    """
    record = latest_snapshot(store)
    if record is None:
        raise ValueError(f"no snapshot records in store {store!r}")
    result = record.get("result") or {}
    world = LiveWorld.from_state(result["state"])
    expected = result.get("digest")
    got = world.digest()
    if expected is not None and got != expected:
        raise ValueError(
            f"restored world digest {got[:12]}… does not match the snapshot's "
            f"{str(expected)[:12]}…; refusing to serve a diverged world"
        )
    return world
