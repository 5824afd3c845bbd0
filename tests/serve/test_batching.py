"""Batcher + coalescer contracts: sequential equivalence and backpressure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.batching import TickBatcher, coalesce_events
from repro.serve.protocol import Request


def _move(node, x, y):
    return Request(op="move", node=node, position=(float(x), float(y)))


def _insert(x, y):
    return Request(op="insert", position=(float(x), float(y)))


def _delete(node):
    return Request(op="delete", node=node)


def _batch(requests, alive):
    batcher = TickBatcher()
    for request in requests:
        _, accepted = batcher.offer(request)
        assert accepted
    return coalesce_events(batcher.drain(), lambda n: n in alive)


class TestCoalesce:
    def test_latest_move_wins(self):
        batch = _batch([_move(1, 0, 0), _move(1, 5, 5), _move(2, 1, 1)], {1, 2})
        assert batch.move_ids.tolist() == [1, 2]
        assert batch.move_positions.tolist() == [[5.0, 5.0], [1.0, 1.0]]
        assert batch.n_events == 3
        assert batch.n_operations == 2

    def test_delete_cancels_pending_move_and_rejects_later_refs(self):
        batch = _batch([_move(1, 5, 5), _delete(1), _move(1, 9, 9)], {1})
        assert batch.move_ids.tolist() == []
        assert batch.delete_ids.tolist() == [1]
        assert len(batch.rejected) == 1
        event, reason = batch.rejected[0]
        assert event.request.position == (9.0, 9.0)
        assert "not alive" in reason

    def test_dead_node_events_rejected(self):
        batch = _batch([_move(99, 1, 1), _delete(99)], set())
        assert batch.is_empty
        assert len(batch.rejected) == 2

    def test_inserts_keep_arrival_order(self):
        batch = _batch([_insert(1, 1), _delete(2), _insert(3, 3)], {2})
        assert batch.insert_positions.tolist() == [[1.0, 1.0], [3.0, 3.0]]
        assert batch.insert_seqs == [1, 3]

    def test_empty_tick_is_empty_batch(self):
        batch = _batch([], set())
        assert batch.is_empty and batch.n_events == 0


class TestBatcher:
    def test_backpressure_at_high_water(self):
        batcher = TickBatcher(high_water=2, tick_interval=0.1)
        assert batcher.offer(_insert(0, 0))[1]
        assert batcher.offer(_insert(1, 1))[1]
        event, accepted = batcher.offer(_insert(2, 2))
        assert not accepted
        assert batcher.rejected_overload == 1
        # seqs are only consumed on acceptance: the refused event's seq is
        # re-handed to the next accepted one.
        assert event.seq == 3
        batcher.drain()
        assert batcher.offer(_insert(3, 3))[0].seq == 3

    def test_retry_after_scales_with_backlog(self):
        batcher = TickBatcher(high_water=2, tick_interval=0.5)
        assert batcher.retry_after() == pytest.approx(0.5)
        # A refusal needs a full buffer, and one flush drains all of it: the
        # hint stays one tick however the buffer filled.
        for x in range(3):
            batcher.offer(_insert(x, x))
        assert len(batcher) == batcher.high_water
        assert batcher.retry_after() == pytest.approx(0.5)

    def test_start_seq_resumes_numbering(self):
        batcher = TickBatcher(start_seq=41)
        assert batcher.offer(_insert(0, 0))[0].seq == 41

    def test_non_update_ops_refused(self):
        with pytest.raises(ValueError):
            TickBatcher().offer(Request(op="ping"))

    def test_drain_empties(self):
        batcher = TickBatcher()
        batcher.offer(_insert(0, 0))
        assert len(batcher.drain()) == 1
        assert len(batcher) == 0
        assert batcher.drain() == []


def test_coalesced_arrays_have_stable_dtypes():
    batch = _batch([_move(1, 0, 0), _delete(2), _insert(1, 1)], {1, 2})
    assert batch.move_ids.dtype == np.int64
    assert batch.move_positions.dtype == np.float64
    assert batch.delete_ids.dtype == np.int64
    assert batch.insert_positions.dtype == np.float64
