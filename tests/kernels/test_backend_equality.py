"""Kernel equality with the scalar loops over the PR 2 adversarial inputs.

Every numpy kernel in ``repro.kernels.ops`` must answer byte-identically to
its extracted scalar loop in ``repro.kernels.reference`` — the certificate
discipline of ``matches_rebuild()`` applied to the kernel layer.  The inputs
deliberately replay the spatial suite's worst cases: exact-boundary pairs,
radius 0, subnormal offsets, and chunk seams.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.kernels import (
    CellTable,
    cell_gather,
    count_in_balls,
    pair_candidates,
    reference,
    splice_edges,
    step_events,
    within_ball_mask,
)
from repro.kernels.layout import pack_bounds, pack_keys

#: The PR 2 exact-quotient pair: radius / cell_size computes to exactly 3.0
#: while the true quotient is just above it.
EXACT_QUOTIENT_RADIUS = 1.9033145596437013
EXACT_QUOTIENT_CELL = 0.6344381865479004
SUBNORMAL = 2.2e-313


def _random_table(rng, n=300, span=7):
    keys = rng.integers(-span, span + 1, size=(n, 2))
    key_min, spans = pack_bounds(keys)
    packed = pack_keys(keys, key_min, spans)
    return CellTable.group_points(packed, key_min, spans), packed


class TestCellGather:
    def test_random_hits_and_misses(self):
        rng = np.random.default_rng(42)
        table, _ = _random_table(rng)
        # Query cells both present and absent, including out-of-table ids.
        packed = rng.integers(-5, int(table.cell_ids.max()) + 5, size=500)
        owners = rng.integers(0, 50, size=500)
        expected = reference.cell_gather(table, packed, owners)
        got = cell_gather(table, packed, owners)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        assert got[0].dtype == np.int64 and got[1].dtype == np.int64

    def test_empty_table_and_empty_queries(self):
        table = CellTable.empty()
        packed = np.array([3], dtype=np.int64)
        owners = np.array([0], dtype=np.int64)
        for args in ((table, packed, owners),):
            got = cell_gather(*args)
            expected = reference.cell_gather(*args)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
        rng = np.random.default_rng(1)
        table2, _ = _random_table(rng, n=10)
        empty = np.zeros(0, dtype=np.int64)
        got = cell_gather(table2, empty, empty)
        assert len(got[0]) == 0 and len(got[1]) == 0


class TestWithinBallMask:
    def test_boundary_pairs_classify_identically(self):
        # Points at exactly the radius, one ULP inside, one ULP outside.
        radius = EXACT_QUOTIENT_RADIUS
        xs = np.array(
            [radius, np.nextafter(radius, 0.0), np.nextafter(radius, np.inf), 0.0]
        )
        pts = np.column_stack([xs, np.zeros_like(xs)])
        center = np.zeros(2)
        expected = reference.within_ball_mask(pts, center, radius)
        got = within_ball_mask(pts, center, radius)
        assert np.array_equal(got, expected)
        assert expected.tolist() == [True, True, False, True]

    def test_radius_zero_admits_only_coincident(self):
        pts = np.array([[0.0, 0.0], [0.0, -SUBNORMAL], [SUBNORMAL, 0.0]])
        got = within_ball_mask(pts, np.zeros(2), 0.0)
        assert got.tolist() == [True, False, False]

    def test_subnormal_offsets(self):
        # d² underflows to 0.0 here; hypot must not.
        pts = np.array([[0.0, -SUBNORMAL], [SUBNORMAL, SUBNORMAL], [0.0, 0.0]])
        for radius in (0.0, SUBNORMAL, 1e-300):
            expected = reference.within_ball_mask(pts, np.zeros(2), radius)
            got = within_ball_mask(pts, np.zeros(2), radius)
            assert np.array_equal(got, expected)

    def test_paired_centers_broadcast(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 2))
        centers = rng.normal(size=(200, 2))
        expected = reference.within_ball_mask(pts, centers, 0.7)
        got = within_ball_mask(pts, centers, 0.7)
        assert np.array_equal(got, expected)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(0, 100, allow_nan=False),
    )
    def test_property_random_points(self, coords, radius):
        pts = np.asarray(coords, dtype=np.float64)
        expected = reference.within_ball_mask(pts, np.zeros(2), radius)
        got = within_ball_mask(pts, np.zeros(2), radius)
        assert np.array_equal(got, expected)


class TestCountAndGroup:
    def test_count_in_balls(self):
        rng = np.random.default_rng(5)
        owners = rng.integers(0, 40, size=1000).astype(np.int64)
        expected = reference.count_in_balls(owners, 40)
        got = count_in_balls(owners, 40)
        assert np.array_equal(got, expected)
        assert np.array_equal(
            count_in_balls(np.zeros(0, dtype=np.int64), 7),
            np.zeros(7, dtype=np.int64),
        )

    def test_pair_candidates(self):
        rng = np.random.default_rng(6)
        owners = rng.integers(0, 25, size=400).astype(np.int64)
        members = rng.integers(0, 90, size=400).astype(np.int64)
        expected = reference.pair_candidates(owners, members, 25, 90)
        got = pair_candidates(owners, members, 25, 90)
        assert len(got) == len(expected) == 25
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)

    def test_pair_candidates_overflow_fallback(self):
        # A member bound big enough to overflow the combined key exercises
        # the lexsort fallback; results must not change.
        owners = np.array([1, 0, 1, 0], dtype=np.int64)
        members = np.array([7, 3, 2, 9], dtype=np.int64)
        wide = pair_candidates(owners, members, 2, 2**62)
        narrow = pair_candidates(owners, members, 2, 10)
        for w, n in zip(wide, narrow):
            assert np.array_equal(w, n)


class TestSpliceEdges:
    def test_fragments_with_duplicates(self):
        rng = np.random.default_rng(8)
        parts = [
            rng.integers(0, 30, size=(rng.integers(0, 20), 2)) for _ in range(12)
        ]
        parts.append([(5, 6), (5, 6), (0, 1)])  # list-of-tuples fragment
        parts.append(np.zeros((0, 2), dtype=np.int64))
        expected = reference.splice_edges(parts)
        got = splice_edges(parts)
        assert np.array_equal(got, expected)
        assert got.dtype == np.int64 and got.shape[1] == 2

    def test_empty(self):
        assert splice_edges([]).shape == (0, 2)

    def test_single_fragment_not_mutated(self):
        rows = np.random.default_rng(10).integers(0, 50, size=(200, 2))
        before = rows.copy()
        got = splice_edges([rows])
        assert np.array_equal(rows, before)
        assert np.array_equal(got, reference.splice_edges([before]))

    def test_endpoints_outside_pack_domain_rejected(self):
        for bad in (-1, 2**31):
            with pytest.raises(ValueError):
                splice_edges([[(0, 1), (3, bad)]])
            with pytest.raises(ValueError):
                splice_edges([[(bad, 3)], [(0, 1)]])
        top = 2**31 - 1
        assert splice_edges([[(top, 0), (0, top)]]).tolist() == [[0, top], [top, 0]]

    @settings(deadline=None, max_examples=50)
    @given(
        st.sampled_from([15, 2**31 - 1]).flatmap(
            lambda hi: st.lists(
                st.lists(
                    st.tuples(st.integers(0, hi), st.integers(0, hi)),
                    max_size=10,
                ),
                max_size=6,
            )
        )
    )
    def test_property_equals_sorted_set(self, parts):
        got = splice_edges(parts)
        pooled = sorted({pair for part in parts for pair in part})
        assert got.tolist() == [list(p) for p in pooled]


class TestStepEvents:
    def test_ties_break_by_sequence(self):
        times = np.array([2.0, 1.0, 2.0, 0.5, 2.0])
        seqs = np.array([4, 1, 0, 3, 2], dtype=np.int64)
        expected = reference.step_events(times, seqs)
        got = step_events(times, seqs)
        assert np.array_equal(got, expected)
        assert got.tolist() == [3, 1, 2, 4, 0]

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), max_size=40),
        st.one_of(st.none(), st.floats(0, 100, allow_nan=False)),
        st.one_of(st.none(), st.integers(0, 50)),
    )
    def test_property_cuts(self, times_list, until, max_events):
        times = np.asarray(times_list, dtype=np.float64)
        seqs = np.arange(len(times), dtype=np.int64)
        expected = reference.step_events(times, seqs, until=until, max_events=max_events)
        got = step_events(times, seqs, until=until, max_events=max_events)
        assert np.array_equal(got, expected)


class TestChunkSeams:
    """Chunked bulk queries must agree with the scalar loops at every seam."""

    def test_grid_bulk_query_chunk_seams(self, scalar_kernels):
        from repro.geometry.index import GridIndex

        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, size=(300, 2))
        # Exact-quotient radius/cell pair + a chunk size that splits queries.
        index_small = GridIndex(pts, EXACT_QUOTIENT_CELL, chunk_size=17)
        index_one = GridIndex(pts, EXACT_QUOTIENT_CELL, chunk_size=None)
        chunked = index_small.query_radius_many(pts, EXACT_QUOTIENT_RADIUS)
        oneshot = index_one.query_radius_many(pts, EXACT_QUOTIENT_RADIUS)
        with scalar_kernels():
            expected = GridIndex(pts, EXACT_QUOTIENT_CELL).query_radius_many(
                pts, EXACT_QUOTIENT_RADIUS
            )
        for c, o, e in zip(chunked, oneshot, expected):
            assert np.array_equal(c, o)
            assert np.array_equal(c, e)


def test_reference_mirrors_ops_signatures():
    """Each scalar loop can stand in for its kernel under any consumer."""
    import inspect

    from repro.kernels import ops

    assert reference.__all__ == ops.__all__
    for name in ops.__all__:
        assert inspect.signature(getattr(reference, name)) == inspect.signature(
            getattr(ops, name)
        ), name
