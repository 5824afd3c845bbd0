"""Leader election within a tile region.

All nodes that fall in the same region of the same tile can hear each other
(the regions are constructed with diameter below the communication radius),
so the election runs on a complete graph: every candidate broadcasts its key,
and every candidate independently picks the minimum key it heard (including
its own).  The key is ``(squared distance to the region's nominal anchor,
node id)`` with the squared distance written ``dx*dx + dy*dy`` — the same
IEEE expression :func:`repro.core.goodness.decide_tiles` evaluates in bulk, so
every election in the repo orders by one key, bit for bit (a Euclidean norm
could round two distinct squared distances to one float and flip a tie).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.distributed.network import MessageNetwork

__all__ = ["election_key", "elect_leader_distributed"]


def election_key(points: np.ndarray, node: int, anchor: np.ndarray) -> Tuple[float, int]:
    """The election key of a node: (squared distance to the region anchor, node id)."""
    x, y = np.asarray(points)[node]
    ax, ay = np.asarray(anchor)
    dx, dy = float(x) - float(ax), float(y) - float(ay)
    return (dx * dx + dy * dy, int(node))


def elect_leader_distributed(
    network: MessageNetwork,
    members: Sequence[int],
    anchor: np.ndarray,
    kind: str = "candidate",
    retransmissions: int = 0,
) -> int:
    """Run a complete-graph leader election among ``members``.

    Every member broadcasts its key to every other member; after delivery each
    member computes the minimum key over everything it has heard (its own key
    included).  The function returns the elected node id and leaves the
    message/round accounting in ``network.stats``.

    ``retransmissions`` bounds the fault tolerance: when the members' local
    decisions diverge (messages were dropped or are still delayed), every
    member re-broadcasts its key and the check repeats — up to that many
    extra rounds.  Heard keys accumulate across rounds, so duplicates are
    harmless (the minimum of a multiset) and a delayed message heals the
    divergence when it finally lands.  A fault-free election always
    converges in the first round, so the default accounting is unchanged.

    Raises
    ------
    ValueError
        If ``members`` is empty.
    RuntimeError
        If the members still disagree after the retransmission budget — the
        explicit beyond-the-envelope outcome (never a silently wrong
        leader).
    """
    member_list = [int(m) for m in members]
    if not member_list:
        raise ValueError("cannot elect a leader among zero members")
    if len(member_list) == 1:
        # A single candidate elects itself without sending anything.
        return member_list[0]

    keys: Dict[int, Tuple[float, int]] = {
        m: election_key(network.points, m, anchor) for m in member_list
    }
    # Every member always counts its own key among the heard ones.
    heard: Dict[int, set] = {m: {keys[m]} for m in member_list}
    for _ in range(max(0, retransmissions) + 1):
        # (Re-)broadcast keys.
        for m in member_list:
            network.broadcast(
                m,
                member_list,
                kind,
                {"d2": keys[m][0], "node": keys[m][1]},
            )
        inboxes = network.deliver_round()
        for m in member_list:
            for msg in inboxes.get(m, []):
                heard[m].add((msg.payload["d2"], msg.payload["node"]))
        # Each member picks the minimum of the keys it heard plus its own;
        # all members must agree (a completeness check on the message
        # plumbing, not a probabilistic property).
        decisions: List[int] = [min(heard[m])[1] for m in member_list]
        winner = decisions[0]
        if all(d == winner for d in decisions):
            return int(winner)
    raise RuntimeError("leader election diverged — message delivery is broken")
