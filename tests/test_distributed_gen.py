"""Tests for distributed (per-rank) graph generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_communicator
from repro.bfs.level_sync import LevelSyncEngine, run_bfs
from repro.bfs.serial import serial_bfs
from repro.graph.distributed_gen import DistributedGraphBuilder, _sample_cell
from repro.graph.generators import build_graph
from repro.partition.base import BlockDistribution
from repro.partition.two_d import TwoDPartition
from repro.errors import PartitionError
from repro.types import GraphSpec, GridShape
from tests.test_pooled_partition import column_chunk, partial_neighbors, stored_columns


#: every pooled table of a TwoDPartition (its whole storage, with the
#: index behind ``stored_lists``)
POOLED = ("owned_lo", "owned_hi", "entry_bounds", "col_ids", "col_bounds",
          "row_ids", "row_bounds", "row_slots")


def assert_pooled_equal(a, b):
    for name in POOLED:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    # the index, read for every vertex of every rank's column chunk
    for rank in range(a.nranks):
        chunk = np.arange(*column_chunk(a, rank % a.grid.cols))
        for x, y in zip(a.stored_lists(chunk, rank), b.stored_lists(chunk, rank)):
            assert x.dtype == y.dtype and np.array_equal(x, y), rank


class TestCellSampling:
    def test_cell_determinism(self):
        spec = GraphSpec(n=500, k=6, seed=2)
        dist = BlockDistribution(500, 8)
        a = _sample_cell(spec, dist, 1, 3)
        b = _sample_cell(spec, dist, 1, 3)
        assert np.array_equal(a, b)

    def test_cells_disjoint_and_valid(self):
        spec = GraphSpec(n=400, k=5, seed=1)
        dist = BlockDistribution(400, 4)
        seen = set()
        for bu in range(4):
            for bv in range(bu, 4):
                edges = _sample_cell(spec, dist, bu, bv)
                u_lo, u_hi = dist.range_of(bu)
                v_lo, v_hi = dist.range_of(bv)
                for u, v in edges.tolist():
                    assert u < v
                    assert u_lo <= u < u_hi and v_lo <= v < v_hi
                    assert (u, v) not in seen
                    seen.add((u, v))

    def test_noncanonical_cell_rejected(self):
        spec = GraphSpec(n=100, k=3, seed=0)
        dist = BlockDistribution(100, 4)
        with pytest.raises(ValueError):
            _sample_cell(spec, dist, 2, 1)

    def test_zero_degree(self):
        spec = GraphSpec(n=100, k=0, seed=0)
        dist = BlockDistribution(100, 2)
        assert _sample_cell(spec, dist, 0, 1).size == 0

    def test_expected_edge_count(self):
        spec = GraphSpec(n=4000, k=10, seed=3)
        builder = DistributedGraphBuilder(spec, GridShape(2, 2))
        graph = builder.reference_graph()
        expected = spec.expected_edges
        assert abs(graph.num_edges - expected) < 5 * np.sqrt(expected)


class TestBuilderEquivalence:
    @pytest.mark.parametrize("grid", [GridShape(2, 2), GridShape(3, 4), GridShape(1, 6),
                                      GridShape(6, 1)], ids=str)
    def test_matches_central_partition(self, grid):
        spec = GraphSpec(n=900, k=7, seed=4)
        builder = DistributedGraphBuilder(spec, grid)
        central = TwoDPartition(builder.reference_graph(), grid)
        assert_pooled_equal(central, builder.build_partition())

    @pytest.mark.parametrize("grid", [GridShape(2, 2), GridShape(3, 4), GridShape(1, 6)],
                             ids=str)
    def test_rmat_matches_the_central_build(self, grid):
        """R-MAT's cells come from the same one-key dedup as the central
        graph: the assembled graph and the partition are the central ones."""
        spec = GraphSpec.rmat(9, edge_factor=8, seed=5)
        central = build_graph(spec)
        builder = DistributedGraphBuilder(spec, grid)
        reference = builder.reference_graph()
        assert np.array_equal(reference.indptr, central.indptr)
        assert np.array_equal(reference.indices, central.indices)
        for (bu, bv), edges in builder._rmat_cells.items():
            u, v = edges[:, 0], edges[:, 1]
            assert bu <= bv and np.all(u < v)
            assert np.all(builder.dist.part_of(u) == bu) and np.all(builder.dist.part_of(v) == bv)
            assert np.all(np.diff(u * spec.n + v) > 0)
        assert_pooled_equal(TwoDPartition(central, grid), builder.build_partition())

    def test_build_rank_returns_the_ranks_entries(self):
        spec = GraphSpec(n=500, k=6, seed=3)
        grid = GridShape(2, 3)
        builder = DistributedGraphBuilder(spec, grid)
        central = TwoDPartition(builder.reference_graph(), grid)
        for rank in range(grid.size):
            rows, cols = builder.build_rank(rank)
            want = sorted(
                (int(u), int(v))
                for v in stored_columns(central, rank)
                for u in partial_neighbors(central, rank, [v])
            )
            assert sorted(zip(rows.tolist(), cols.tolist())) == want

    def test_cells_for_rank_cover_storage(self):
        spec = GraphSpec(n=600, k=6, seed=7)
        grid = GridShape(2, 3)
        builder = DistributedGraphBuilder(spec, grid)
        # every canonical cell that can place an entry on the rank is listed
        for rank in range(grid.size):
            cells = set(builder.cells_for_rank(rank))
            assert len(cells) <= 2 * grid.size
            R, C = grid.rows, grid.cols
            i, j = grid.coords_of(rank)
            for bu in range(grid.size):
                for bv in range(grid.size):
                    stores = bu % R == i and bv // R == j
                    if stores:
                        assert (min(bu, bv), max(bu, bv)) in cells

    def test_build_partition_runs_bfs(self):
        """BFS on a distributed-built partition equals serial BFS on the
        assembled reference graph."""
        spec = GraphSpec(n=1500, k=8, seed=9)
        grid = GridShape(3, 3)
        builder = DistributedGraphBuilder(spec, grid)
        partition = builder.build_partition()
        comm = build_communicator(grid)
        result = run_bfs(LevelSyncEngine(partition, comm), 0)
        assert np.array_equal(result.levels, serial_bfs(builder.reference_graph(), 0))

    def test_from_entries_rejects_bad_entries(self):
        grid = GridShape(2, 2)
        for rows, cols in (
            ([0, 300], [1, 2]), ([0, 1], [-1, 2]), ([0, 1], [2, 300]), ([0, 1], [2])
        ):
            with pytest.raises(PartitionError):
                TwoDPartition.from_entries(300, grid, rows, cols)

    @given(st.integers(0, 500), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, seed, rows, cols):
        spec = GraphSpec(n=240, k=4, seed=seed)
        grid = GridShape(rows, cols)
        builder = DistributedGraphBuilder(spec, grid)
        central = TwoDPartition(builder.reference_graph(), grid)
        assert_pooled_equal(central, builder.build_partition())
