"""The served-vs-batch equivalence certificate, property-tested.

Coalesced tick serving must be semantically invisible: for any interleaving
of moves (with same-tick duplicate re-reports), churn (inserts/deletes,
including same-tick move-after-delete conflicts) and empty ticks, the
maintained structures of the served world — alive ids, exact positions, UDG
edge set, spliced overlay — must be byte-identical to an uncoalesced
sequential replay of the same trace.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.serialize import canonical_json
from repro.serve.bench import generate_storm, replay_sequential
from repro.serve.server import ServeSession
from repro.serve.world import LiveWorld, WorldConfig, world_digest_parts

SIDE = 9.0


def _parts(world: LiveWorld) -> str:
    return canonical_json(
        world_digest_parts(world.index, world.tracker, world.engine)
    )


def _serve(initial: np.ndarray, config: WorldConfig, ticks) -> LiveWorld:
    """Run the trace through the real serving pipeline (wire format included)."""
    session = ServeSession(LiveWorld(initial.copy(), config))
    for tick in ticks:
        for payload in tick:
            result = session.handle_line(json.dumps(payload))
            assert result.immediate is None  # accepted, deferred to the tick
        session.flush()
    return session.world


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_served_equals_sequential_replay(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = 25
    initial = rng.uniform(0.0, SIDE, size=(n, 2))
    config = WorldConfig(window_xmax=SIDE, window_ymax=SIDE)
    ticks = generate_storm(
        n,
        n_ticks=4,
        events_per_tick=8,
        rng=rng,
        side=SIDE,
        duplicate_fraction=0.3,
        empty_tick_every=3,
    )
    served = _serve(initial, config, ticks)
    reference = replay_sequential(initial.copy(), config, ticks)
    assert _parts(served) == _parts(reference)
    assert served.applied_seq == reference.applied_seq


def test_pathological_tick_coalesces_exactly(rng) -> None:
    """One hand-built worst-case tick: duplicates, delete-then-move, insert."""
    initial = rng.uniform(0.0, SIDE, size=(12, 2))
    config = WorldConfig(window_xmax=SIDE, window_ymax=SIDE)
    ticks = [
        [
            {"op": "move", "node": 0, "position": [1.0, 1.0]},
            {"op": "move", "node": 0, "position": [2.0, 2.0]},  # shadows the first
            {"op": "delete", "node": 1},
            {"op": "move", "node": 1, "position": [3.0, 3.0]},  # dead: rejected
            {"op": "insert", "position": [4.0, 4.0]},
            {"op": "delete", "node": 2},
        ],
        [],  # empty tick
        [
            {"op": "move", "node": 12, "position": [5.0, 5.0]},  # the insert's id
        ],
    ]
    served = _serve(initial, config, ticks)
    reference = replay_sequential(initial.copy(), config, ticks)
    assert _parts(served) == _parts(reference)
    assert served.index.position_of(12).tolist() == [5.0, 5.0]
