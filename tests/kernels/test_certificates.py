"""Full-stack byte-identity certificates: consumers on the scalar oracle.

The per-kernel equality suite proves the kernels agree in isolation; these
tests prove the *consumers* — grid index bulk queries, the repair engine's
spliced overlay, the graph builders' canonical edge arrays, the event
queue's stepping order — produce byte-identical
results when every kernel call is routed through the scalar loops of
``repro.kernels.reference``.  This is the ``matches_rebuild()`` discipline
applied at the seams the kernel layer touches.
"""

import numpy as np

from repro.core.tiles_udg import UDGTileSpec
from repro.distributed import DistributedRepairEngine
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.geometry.index import GridIndex, KDTreeIndex
from repro.geometry.primitives import Rect
from repro.graphs.base import GeometricGraph
from repro.graphs.knn import build_knn
from repro.graphs.spanners import _candidate_edges, build_gabriel_graph
from repro.graphs.udg import udg_edges
from repro.simulation.events import EventQueue


class TestGridIndexCertificate:
    def test_query_and_count_radius_many(self, scalar_kernels):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 6, size=(400, 2))
        queries = rng.uniform(-0.5, 6.5, size=(80, 2))
        index = GridIndex(pts, cell_size=0.7)
        with scalar_kernels():
            expected_q = index.query_radius_many(queries, 0.9)
            expected_c = index.count_radius_many(queries, 0.9)
        got_q = index.query_radius_many(queries, 0.9)
        got_c = index.count_radius_many(queries, 0.9)
        assert np.array_equal(got_c, expected_c)
        for g, e in zip(got_q, expected_q):
            assert np.array_equal(g, e)

    def test_kdtree_post_filter(self, scalar_kernels):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 6, size=(300, 2))
        index = KDTreeIndex(pts)
        with scalar_kernels():
            expected = index.query_radius(np.array([3.0, 3.0]), 1.1)
        got = index.query_radius(np.array([3.0, 3.0]), 1.1)
        assert np.array_equal(got, expected)


class TestRepairCertificate:
    def test_spliced_result_identical(self, scalar_kernels):
        spec = UDGTileSpec.default()
        window = Rect(0.0, 0.0, 6.0, 6.0)
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 6, size=(150, 2))

        def session():
            rng2 = np.random.default_rng(99)
            index = DynamicSpatialIndex(pts, radius=spec.connection_radius)
            engine = DistributedRepairEngine(index, spec, window)
            index.move(
                index.ids()[:20],
                index.positions()[:20] + rng2.normal(0, 0.3, size=(20, 2)),
            )
            index.insert(rng2.uniform(0, 6, size=(5, 2)))
            index.delete(index.ids()[40:50])
            engine.update()
            return engine.result()

        with scalar_kernels():
            expected = session()
        got = session()
        assert got.good_tiles == expected.good_tiles
        assert got.representatives == expected.representatives
        assert np.array_equal(got.edges, expected.edges)


class TestEventQueueCertificate:
    def test_run_order_identical(self, scalar_kernels):
        def session():
            queue = EventQueue()
            queue.schedule_at_many(
                np.repeat(np.arange(1.0, 11.0), 3), "tick"
            )
            order = []

            def handler(event, q):
                order.append((event.time, event.sequence, event.kind))
                # Mid-run scheduling exercises the side-heap merge.
                if event.sequence % 7 == 0:
                    q.schedule(0.25, "echo")

            queue.run(handler, until=9.0)
            order.extend((e.time, e.sequence, e.kind) for e in queue.drain())
            return order

        with scalar_kernels():
            expected = session()
        got = session()
        assert got == expected


class TestGraphBuilderCertificate:
    """Every canonical edge array goes through ``kernel_ops.splice_edges``.

    The fixture's "no numpy kernel ran" assertion proves each builder below
    reaches the splice through the kernel layer, and the equalities prove
    the packed-key splice answers byte-identically to the scalar set sort.
    """

    #: The exact-quotient radius of ``test_backend_equality``.
    RADIUS = 1.9033145596437013

    @classmethod
    def _points(cls):
        rng = np.random.default_rng(24)
        pts = rng.uniform(0, 6, size=(200, 2))
        # Coincident clusters, plus a pair exactly one radius apart.
        pts = np.vstack([pts, np.repeat(pts[:2], 4, axis=0)])
        return np.vstack([pts, [[0.5, 0.5], [0.5 + cls.RADIUS, 0.5]]])

    def test_udg_and_knn_builders(self, scalar_kernels):
        pts = self._points()

        def build():
            return [
                edges
                for backend in ("kdtree", "grid")
                for edges in (
                    udg_edges(pts, self.RADIUS, backend=backend),
                    build_knn(pts, 6, backend=backend).edges,
                )
            ]

        with scalar_kernels():
            expected = build()
        got = build()
        assert any((e == [len(pts) - 2, len(pts) - 1]).all(axis=1).any() for e in got[::2])
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e)

    def test_geometric_graph_canonicalises_any_row_order(self, scalar_kernels):
        pts = self._points()
        edges = udg_edges(pts, self.RADIUS)
        rng = np.random.default_rng(25)
        messy = np.vstack([edges[::-1, ::-1], edges[rng.permutation(len(edges))]])
        with scalar_kernels():
            expected = GeometricGraph(pts, messy).edges
        got = GeometricGraph(pts, messy).edges
        assert np.array_equal(got, expected)
        assert np.array_equal(got, edges)

    def test_spanner_candidate_edges(self, scalar_kernels):
        pts = self._points()[:60]
        base = udg_edges(pts, self.RADIUS)[::-1, ::-1]
        with scalar_kernels():
            expected = _candidate_edges(pts, base)
            expected_gabriel = build_gabriel_graph(pts, base_edges=base).edges
        assert np.array_equal(_candidate_edges(pts, base), expected)
        assert np.array_equal(build_gabriel_graph(pts, base_edges=base).edges, expected_gabriel)
