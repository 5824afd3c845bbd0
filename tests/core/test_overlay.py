"""Tests for the overlay builder (P1 degree bounds, subgraph property, components)."""

import dataclasses

import numpy as np
import pytest

from repro.core.overlay import OverlayRole, build_overlay


class TestOverlayStructure:
    def test_nodes_are_reps_and_relays(self, udg_network):
        overlay = udg_network.overlay
        classification = udg_network.classification
        expected = set()
        for tile in classification.good_tiles():
            record = classification.records[tile]
            expected.add(record.representative)
            expected.update(record.relays.values())
        assert set(overlay.original_indices.tolist()) == expected

    def test_roles_recorded_for_every_node(self, udg_network):
        overlay = udg_network.overlay
        assert set(overlay.roles.keys()) == set(range(overlay.n_nodes))
        for assignments in overlay.roles.values():
            assert assignments
            for tile, region, role in assignments:
                assert role in (OverlayRole.REPRESENTATIVE, OverlayRole.RELAY)

    def test_tile_representatives_mapping(self, udg_network):
        overlay = udg_network.overlay
        classification = udg_network.classification
        for tile, node in overlay.tile_representatives.items():
            assert int(overlay.original_indices[node]) == classification.records[tile].representative

    def test_node_for_original_roundtrip(self, udg_network):
        overlay = udg_network.overlay
        for node in range(0, overlay.n_nodes, 25):
            original = int(overlay.original_indices[node])
            assert overlay.node_for_original(original) == node

    def test_node_for_original_missing(self, udg_network):
        overlay = udg_network.overlay
        missing = int(max(overlay.original_indices)) + 1
        with pytest.raises(KeyError):
            overlay.node_for_original(missing)

    def test_node_for_original_rejects_out_of_range_and_absent_ids(self, udg_network):
        overlay = udg_network.overlay
        n = udg_network.n_deployed
        absent = np.setdiff1d(np.arange(n), overlay.original_indices)[0]
        for original in (-1, n, int(absent)):
            with pytest.raises(KeyError):
                overlay.node_for_original(original)

    def test_inverse_covers_every_point(self, udg_network):
        overlay = udg_network.overlay
        inverse = overlay.node_of_original
        assert inverse.shape == (udg_network.n_deployed,)
        inside = np.flatnonzero(inverse >= 0)
        assert inside.tolist() == overlay.original_indices.tolist()
        assert inverse[inside].tolist() == list(range(overlay.n_nodes))

    def test_largest_component_inverse_roundtrips(self, sparse_udg_network):
        net = sparse_udg_network
        sens = net.sens
        inverse = sens.node_of_original
        assert inverse.shape == (net.n_deployed,)
        assert np.flatnonzero(inverse >= 0).tolist() == sens.original_indices.tolist()
        for node, original in enumerate(sens.original_indices.tolist()):
            assert sens.node_for_original(original) == node
        dropped = np.setdiff1d(net.overlay.original_indices, sens.original_indices)
        assert dropped.size
        for original in dropped.tolist():
            with pytest.raises(KeyError):
                sens.node_for_original(original)
        assert len(sens.tile_representatives) < len(net.overlay.tile_representatives)
        for tile, node in sens.tile_representatives.items():
            assert int(sens.original_indices[node]) == net.classification.records[tile].representative

    def test_largest_component_hop_chains_stay_inside(self, sparse_udg_network):
        sens = sparse_udg_network.sens
        chains = sens.hop_chains
        assert chains.min() >= -1 and chains.max() < sens.n_nodes
        # A hop's chain is connected: wholly kept or wholly dropped.
        live = chains >= 0
        assert (live.all(axis=-1) == live.any(axis=-1)).all()


class TestFrozenStructures:
    def test_fields_cannot_be_reassigned(self, udg_network):
        for obj, field in (
            (udg_network.overlay, "graph"),
            (udg_network.overlay, "node_of_original"),
            (udg_network.sens, "hop_chains"),
            (udg_network.classification, "records"),
            (udg_network.classification, "good_mask"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, None)

    def test_stored_arrays_are_read_only(self, udg_network):
        for array in (
            udg_network.classification.good_mask,
            udg_network.overlay.node_of_original,
            udg_network.overlay.hop_chains,
            udg_network.sens.node_of_original,
            udg_network.sens.hop_chains,
        ):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1

    def test_lattice_wraps_the_stored_mask(self, udg_network):
        lattice = udg_network.lattice()
        assert lattice.open_mask is udg_network.classification.good_mask


class TestDegreeBounds:
    """Property P1: representatives have degree ≤ 4; relays ≤ 4 even with shared roles."""

    def test_max_degree_at_most_four_udg(self, udg_network):
        assert udg_network.overlay.graph.degrees().max() <= 4

    def test_max_degree_at_most_four_nn(self, nn_network):
        if nn_network.overlay.n_nodes == 0:
            pytest.skip("no good tiles in the sampled NN network")
        assert nn_network.overlay.graph.degrees().max() <= 4

    def test_representative_degree_bound(self, udg_network):
        overlay = udg_network.overlay
        deg = overlay.graph.degrees()
        for node in overlay.representative_nodes():
            assert deg[node] <= 4

    def test_pure_relay_degree_bound(self, udg_network):
        overlay = udg_network.overlay
        deg = overlay.graph.degrees()
        for node in overlay.relay_nodes():
            roles = overlay.roles[int(node)]
            # A point holding r relay roles has at most 2 edges per role.
            assert deg[node] <= 2 * len(roles)


class TestSubgraphProperty:
    def test_all_overlay_edges_exist_in_base_udg(self, udg_network):
        ok = udg_network.overlay.verify_edges_in_base(udg_network.base_graph)
        assert ok.all()

    def test_all_overlay_edges_exist_in_base_nn(self, nn_network):
        ok = nn_network.overlay.verify_edges_in_base(nn_network.base_graph)
        if len(ok):
            assert ok.all()

    def test_udg_overlay_edge_lengths_at_most_radius(self, udg_network):
        lengths = udg_network.overlay.graph.edge_lengths()
        assert (lengths <= udg_network.spec.connection_radius + 1e-9).all()


class TestLargestComponent:
    def test_sens_is_subset_of_overlay(self, udg_network):
        sens = udg_network.sens
        overlay = udg_network.overlay
        assert sens.n_nodes <= overlay.n_nodes
        assert set(sens.original_indices.tolist()) <= set(overlay.original_indices.tolist())

    def test_sens_is_connected(self, udg_network):
        from repro.graphs.metrics import largest_component_fraction

        assert largest_component_fraction(udg_network.sens.graph) == pytest.approx(1.0)

    def test_sens_tile_representatives_subset(self, udg_network):
        assert set(udg_network.sens.tile_representatives) <= set(
            udg_network.overlay.tile_representatives
        )

    def test_roles_remapped_consistently(self, udg_network):
        sens = udg_network.sens
        for tile, node in sens.tile_representatives.items():
            roles = sens.roles[node]
            assert any(r == OverlayRole.REPRESENTATIVE and t == tile for t, _, r in roles)


class TestEmptyDeployment:
    def test_overlay_of_empty_classification(self, udg_spec):
        from repro.core.goodness import classify_tiles
        from repro.core.tiling import Tiling
        from repro.geometry.primitives import Rect

        window = Rect(0, 0, udg_spec.tile_side * 2, udg_spec.tile_side * 2)
        tiling = Tiling(window=window, tile_side=udg_spec.tile_side)
        classification = classify_tiles(np.zeros((0, 2)), tiling, udg_spec)
        overlay = build_overlay(np.zeros((0, 2)), classification)
        assert overlay.n_nodes == 0
        assert overlay.n_edges == 0
        assert overlay.largest_component().n_nodes == 0
