"""Tests for tile classification (goodness and point selection)."""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.core.goodness import classify_tiles, decide_tiles, failure_reasons
from repro.core.tiles_nn import NNTileSpec
from repro.core.tiles_udg import UDGTileSpec
from repro.core.tiling import Tiling
from repro.geometry.poisson import poisson_points
from repro.geometry.primitives import Rect
from repro.runner.serialize import params_key


@pytest.fixture(scope="module")
def spec():
    return UDGTileSpec.default()


def make_good_tile_points(spec, tile_center):
    """Hand-place one point in C0 and one in each relay region of a tile."""
    offsets = [spec.region_anchor(name) for name in spec.region_names]
    return np.asarray(tile_center) + np.asarray(offsets)


class TestSelectLeader:
    """Leader election through decide_tiles, on one hand-placed C0 region."""

    @staticmethod
    def _decide(spec, offsets):
        window = Rect(0, 0, spec.tile_side, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = tiling.tile_center((0, 0)) + np.asarray(offsets, dtype=float)
        return decide_tiles(pts, np.arange(len(pts)), tiling, spec)

    def test_closest_wins(self, spec):
        decisions = self._decide(spec, [[0.0, 0.0], [0.3, 0.0], [0.2, 0.0]])
        assert decisions.leaders[0, 0] == 0  # C0 anchors at the tile centre
        decisions = self._decide(spec, [[0.1, 0.0], [0.3, 0.0], [0.02, 0.0]])
        assert decisions.leaders[0, 0] == 2

    def test_tie_broken_by_index(self, spec):
        decisions = self._decide(spec, [[0.1, 0.0], [-0.1, 0.0]])
        assert decisions.leaders[0, 0] == 0

    def test_empty_region_has_no_leader(self, spec):
        # One point in C0 only: every relay region is empty.
        decisions = self._decide(spec, [[0.0, 0.0]])
        assert decisions.leaders[0].tolist() == [0, -1, -1, -1, -1]
        assert decisions.region_counts[0].tolist() == [1, 0, 0, 0, 0]
        assert not decisions.good[0]
        assert failure_reasons(spec)[decisions.failure[0]] == "missing:E_right"


class TestClassification:
    def test_hand_built_good_tile(self, spec):
        window = Rect(0, 0, spec.tile_side, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = make_good_tile_points(spec, tiling.tile_center((0, 0)))
        classification = classify_tiles(pts, tiling, spec)
        record = classification.records[(0, 0)]
        assert record.good
        assert record.failure_reason == ""
        assert record.representative == 0  # the C0 point
        assert set(record.relays.keys()) == {"E_right", "E_left", "E_top", "E_bottom"}

    def test_missing_region_marks_bad(self, spec):
        window = Rect(0, 0, spec.tile_side, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = make_good_tile_points(spec, tiling.tile_center((0, 0)))[:-1]  # drop E_bottom
        classification = classify_tiles(pts, tiling, spec)
        record = classification.records[(0, 0)]
        assert not record.good
        assert record.failure_reason == "missing:E_bottom"
        assert record.representative is None

    def test_empty_tile_is_bad(self, spec):
        window = Rect(0, 0, spec.tile_side * 2, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = make_good_tile_points(spec, tiling.tile_center((0, 0)))
        classification = classify_tiles(pts, tiling, spec)
        assert not classification.records[(1, 0)].good
        assert classification.records[(1, 0)].failure_reason.startswith("missing:")

    def test_good_mask_and_lattice_coupling(self, spec):
        window = Rect(0, 0, spec.tile_side * 2, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = make_good_tile_points(spec, tiling.tile_center((0, 0)))
        classification = classify_tiles(pts, tiling, spec)
        mask = classification.good_mask
        assert mask.shape == (1, 2)
        assert mask[0, 0] and not mask[0, 1]
        lattice = classification.to_lattice()
        assert lattice.is_open((0, 0))
        assert not lattice.is_open((0, 1))
        assert classification.fraction_good == pytest.approx(0.5)

    def test_failure_histogram(self, spec):
        window = Rect(0, 0, spec.tile_side * 2, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = make_good_tile_points(spec, tiling.tile_center((0, 0)))
        classification = classify_tiles(pts, tiling, spec)
        hist = classification.failure_histogram()
        assert sum(hist.values()) == 1

    def test_tile_side_mismatch_rejected(self, spec):
        tiling = Tiling(window=Rect(0, 0, 10, 10), tile_side=2.0)
        with pytest.raises(ValueError):
            classify_tiles(np.zeros((1, 2)), tiling, spec)

    def test_all_points_assigned_to_some_record(self, spec, rng):
        window = Rect(0, 0, spec.tile_side * 4, spec.tile_side * 4)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = poisson_points(window, 15.0, rng)
        classification = classify_tiles(pts, tiling, spec)
        counted = sum(len(r.point_indices) for r in classification.records.values())
        # Points on the outer boundary can fall into (excluded) partial tiles.
        assert counted <= len(pts)
        assert counted >= 0.9 * len(pts)

    def test_representatives_are_in_c0(self, spec, rng):
        window = Rect(0, 0, spec.tile_side * 4, spec.tile_side * 4)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = poisson_points(window, 25.0, rng)
        classification = classify_tiles(pts, tiling, spec)
        c0 = spec.region_predicates()["C0"]
        for tile in classification.good_tiles():
            rep = classification.representative_of(tile)
            local = pts[rep] - tiling.tile_center(tile)
            assert c0.contains(local[None, :])[0]

    def test_relays_are_in_their_regions(self, spec, rng):
        window = Rect(0, 0, spec.tile_side * 3, spec.tile_side * 3)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = poisson_points(window, 25.0, rng)
        classification = classify_tiles(pts, tiling, spec)
        preds = spec.region_predicates()
        for tile in classification.good_tiles():
            record = classification.records[tile]
            center = tiling.tile_center(tile)
            for region, idx in record.relays.items():
                local = pts[idx] - center
                assert preds[region].contains(local[None, :])[0]

    def test_deterministic_given_points(self, spec, rng):
        window = Rect(0, 0, spec.tile_side * 3, spec.tile_side * 3)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        pts = poisson_points(window, 20.0, rng)
        a = classify_tiles(pts, tiling, spec)
        b = classify_tiles(pts, tiling, spec)
        assert a.good_mask.tolist() == b.good_mask.tolist()
        for tile in a.good_tiles():
            assert a.records[tile].representative == b.records[tile].representative


class TestStoredGoodMask:
    def test_views_derive_from_the_records(self, spec, rng):
        window = Rect(0, 0, spec.tile_side * 5, spec.tile_side * 4)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        classification = classify_tiles(poisson_points(window, 12.0, rng), tiling, spec)
        good = [t for t in tiling.tiles() if classification.records[t].good]
        assert 0 < len(good) < tiling.n_tiles
        assert classification.good_tiles() == good
        assert classification.n_good == len(good)
        expected = np.zeros(tiling.shape, dtype=bool)
        for col, row in good:
            expected[row, col] = True
        assert classification.good_mask.tolist() == expected.tolist()


class TestPredicatesBuiltOnce:
    @pytest.mark.parametrize("make_spec", [UDGTileSpec.default, lambda: NNTileSpec(a=0.5)])
    def test_classify_leaves_spec_identity_unchanged(self, make_spec, rng):
        spec = make_spec()
        before = (hash(spec), params_key("E00", {"spec": spec}), pickle.dumps(spec))
        window = Rect(0, 0, spec.tile_side * 3, spec.tile_side * 3)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        classify_tiles(poisson_points(window, 6.0, rng), tiling, spec, k=40)
        assert spec.region_predicates() is spec.region_predicates()
        assert spec == make_spec()
        assert (hash(spec), params_key("E00", {"spec": spec}), pickle.dumps(spec)) == before
        assert pickle.loads(before[2]).region_predicates().keys() == spec.region_predicates().keys()

    def test_predicates_are_read_only(self, spec):
        with pytest.raises(TypeError):
            spec.region_predicates()["C0"] = None


class TestNNOccupancyCap:
    def test_overcrowded_tile_is_bad(self):
        from repro.core.tiles_nn import NNTileSpec

        spec = NNTileSpec(a=0.5)
        window = Rect(0, 0, spec.tile_side, spec.tile_side)
        tiling = Tiling(window=window, tile_side=spec.tile_side)
        rng = np.random.default_rng(0)
        pts = window.sample_uniform(400, rng)
        classification = classify_tiles(pts, tiling, spec, k=10)  # cap = 5 << 400
        record = classification.records[(0, 0)]
        assert not record.good
        assert record.failure_reason == "overcrowded"


class TestNNClassificationPins:
    """NN-SENS tile records pinned to digests recorded before the E-region
    predicates gained their bounding-box prefilter."""

    @staticmethod
    def _digest(classification):
        rows = [
            [
                list(tile),
                record.point_indices.tolist(),
                record.good,
                record.failure_reason,
                record.representative,
                sorted(record.relays.items()),
            ]
            for tile, record in sorted(classification.records.items())
        ]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    @pytest.mark.parametrize(
        "seed, side, intensity, n_good, digest",
        [
            (1, 36.0, 1.0, 9, "6ec206869082291504f2ec727db71c991030ee247031728a0e42167a98b3f657"),
            (2, 36.0, 0.8, 9, "16aab4c5aa940ce2d72e7e0d92a9e8b8dac680a905c46ca12e32c5cbc678f879"),
            (3, 36.0, 1.2, 11, "0ee9e1f146253791572d17ec11e49877a41351b61ab746d520b0c3b488f80af9"),
            (4, 60.0, 1.0, 23, "774b1a6c05e21587ff1d36eebc6705cce014f2b09935893378517dcd8cae28d4"),
        ],
    )
    def test_records_match_recorded_digest(self, seed, side, intensity, n_good, digest):
        spec = NNTileSpec.default()
        window = Rect(0, 0, side, side)
        pts = poisson_points(window, intensity, np.random.default_rng(seed))
        classification = classify_tiles(pts, Tiling(window, spec.tile_side), spec, k=188)
        assert classification.n_good == n_good
        assert self._digest(classification) == digest
