"""Tests for machine models: task mapping, BlueGene/L costs, flat cluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.machine.bluegene import BLUEGENE_L, MachineModel, bluegene_l_torus_for
from repro.machine.cluster import MCR_CLUSTER, FlatNetwork, flat_network_for
from repro.machine.mapping import TaskMapping, planar_mapping, row_major_mapping
from repro.machine.torus import Torus3D
from repro.runtime.comm import Communicator
from repro.types import GridShape


class TestMachineModel:
    def test_message_time_components(self):
        model = MachineModel(
            name="t", alpha=1e-6, per_hop=1e-7, bandwidth=1e8,
            bytes_per_vertex=8, edge_scan_cost=0, hash_lookup_cost=0, update_cost=0,
        )
        t = model.message_time(1000, hops=3)
        assert t == pytest.approx(1e-6 + 3e-7 + 8000 / 1e8)

    def test_contention_slows_transfer(self):
        base = BLUEGENE_L.message_time(10_000, hops=2, contention=1.0)
        congested = BLUEGENE_L.message_time(10_000, hops=2, contention=4.0)
        assert congested > base

    def test_compute_time(self):
        comm = Communicator(flat_network_for(GridShape(1, 2)), BLUEGENE_L)
        comm.charge_compute_many(
            edges_scanned=np.array([10, 0]), hash_lookups=np.array([5, 1]),
            updates=np.array([2, 0]),
        )
        expected = (
            10 * BLUEGENE_L.edge_scan_cost
            + 5 * BLUEGENE_L.hash_lookup_cost
            + 2 * BLUEGENE_L.update_cost
        )
        assert comm.clock.compute_time.tolist() == pytest.approx(
            [expected, BLUEGENE_L.hash_lookup_cost]
        )

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            BLUEGENE_L.message_time(-1)

    def test_with_overrides(self):
        model = BLUEGENE_L.with_overrides(alpha=9e-6)
        assert model.alpha == 9e-6
        assert model.bandwidth == BLUEGENE_L.bandwidth

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MachineModel(
                name="bad", alpha=0, per_hop=0, bandwidth=1,
                bytes_per_vertex=8, edge_scan_cost=0, hash_lookup_cost=0, update_cost=0,
            )

    def test_hashing_dominates_bluegene(self):
        """The paper profiled hashing as the dominant cost; the calibrated
        model must charge more per hash lookup than per wire byte-time."""
        per_vertex_wire = BLUEGENE_L.bytes_per_vertex / BLUEGENE_L.bandwidth
        assert BLUEGENE_L.hash_lookup_cost > 3 * per_vertex_wire


class TestBlueGeneTorusFor:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 64, 128, 512])
    def test_exact_node_count(self, p):
        torus = bluegene_l_torus_for(p)
        assert torus.num_nodes == p

    def test_cubic_preference(self):
        assert sorted(bluegene_l_torus_for(64).dims, reverse=True) == [4, 4, 4]
        assert sorted(bluegene_l_torus_for(8).dims, reverse=True) == [2, 2, 2]

    def test_prime_falls_back_to_line(self):
        assert sorted(bluegene_l_torus_for(13).dims, reverse=True) == [13, 1, 1]


class TestTaskMapping:
    def test_row_major_identity(self):
        grid = GridShape(2, 4)
        mapping = row_major_mapping(grid, Torus3D(2, 2, 2))
        assert mapping.node_of(5) == 5

    def test_permutation_required(self):
        grid = GridShape(2, 2)
        with pytest.raises(TopologyError):
            TaskMapping(grid, Torus3D(2, 2, 1), np.array([0, 0, 1, 2]))

    def test_too_small_torus_rejected(self):
        with pytest.raises(TopologyError):
            TaskMapping(GridShape(2, 4), Torus3D(2, 2, 1), np.arange(8))

    def test_planar_mapping_is_permutation(self):
        grid = GridShape(4, 4)
        mapping = planar_mapping(grid, Torus3D(2, 4, 2))
        assert sorted(mapping.rank_to_node.tolist()) == list(range(16))

    def test_planar_mapping_shortens_column_rings(self):
        """The Figure 1 mapping should make expand rings (processor-columns)
        at least as short as the naive row-major placement."""
        grid = GridShape(8, 8)
        torus = Torus3D(4, 4, 4)
        planar = planar_mapping(grid, torus)
        naive = row_major_mapping(grid, torus)
        assert planar.column_ring_hops() <= naive.column_ring_hops()

    def test_planar_fallback_when_incompatible(self):
        grid = GridShape(3, 5)
        torus = Torus3D(15, 1, 1)
        mapping = planar_mapping(grid, torus)  # C=5 not divisible by Z=1 -> ok
        assert sorted(mapping.rank_to_node.tolist()) == list(range(15))

    def test_mean_group_hops(self):
        grid = GridShape(2, 2)
        mapping = row_major_mapping(grid, Torus3D(4, 1, 1))
        assert mapping.mean_group_hops([0, 1]) == 1.0
        assert mapping.mean_group_hops([0]) == 0.0

    def test_ring_hops(self):
        grid = GridShape(1, 4)
        mapping = row_major_mapping(grid, Torus3D(4, 1, 1))
        assert mapping.ring_hops([0, 1, 2, 3]) == 4  # unit steps + wrap


class TestFlatNetwork:
    def test_all_pairs_one_hop(self):
        net = FlatNetwork(6)
        assert net.hop_distance(0, 5) == 1
        assert net.hop_distance(2, 2) == 0

    def test_vectorised(self):
        net = FlatNetwork(4)
        d = net.hop_distance_many(np.array([0, 1]), np.array([0, 3]))
        assert d.tolist() == [0, 1]

    def test_route_single_link(self):
        net = FlatNetwork(4)
        assert net.route(1, 3) == [(1, 3)]
        assert net.route(2, 2) == []

    def test_flat_network_for(self):
        mapping = flat_network_for(GridShape(2, 3))
        assert mapping.hops(0, 5) == 1

    def test_mcr_faster_cpu_than_bluegene(self):
        assert MCR_CLUSTER.hash_lookup_cost < BLUEGENE_L.hash_lookup_cost
