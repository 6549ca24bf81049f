"""Tests for the 1D vertex partitioning (Algorithm 1's layout).

1D partitioning is 2D partitioning on a ``1 x P`` mesh (Section 2.2): the
:class:`TwoDPartition` built there, where each rank's column chunk is its
own vertex block, so it stores the full edge list of every vertex it owns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import engine_mesh
from repro.errors import PartitionError
from repro.partition.balance import balance_report
from repro.partition.one_d import OneDPartition
from repro.partition.two_d import TwoDPartition
from repro.types import GridShape, VERTEX_DTYPE, resolve_system


def one_d(graph, nranks: int) -> TwoDPartition:
    return TwoDPartition(graph, GridShape(1, nranks))


def sorted_neighbors(graph, vertices) -> np.ndarray:
    return np.sort(np.concatenate([graph.neighbors(int(v)) for v in vertices]))


class TestOneDPartition:
    def test_grid_orientation(self, small_graph):
        """Either 1-D grid the "1d" layout is asked for partitions on 1 x P."""
        spec = resolve_system("bluegene-1d")
        for grid in (GridShape(4, 1), GridShape(1, 4)):
            assert engine_mesh(grid, spec) == GridShape(1, 4)
        assert one_d(small_graph, 4).grid == GridShape(1, 4)
        # the old name stays importable, as the 1 x P partition's
        assert issubclass(OneDPartition, TwoDPartition)

    def test_total_edges_preserved(self, small_graph):
        part = one_d(small_graph, 8)
        total = sum(part.local(r).num_stored_entries for r in range(8))
        assert total == small_graph.num_directed_edges

    def test_owned_vertices_partition_the_graph(self, small_graph):
        part = one_d(small_graph, 5)
        owned = np.concatenate([part.owned_vertices(r) for r in range(5)])
        assert np.array_equal(owned, np.arange(small_graph.n))

    def test_owner_of_matches_owned(self, small_graph):
        part = one_d(small_graph, 5)
        for r in range(5):
            assert (part.owner_of(part.owned_vertices(r)) == r).all()

    def test_local_edge_lists_match_graph(self, small_graph):
        """At R = 1 every partial edge list is the vertex's full list."""
        part = one_d(small_graph, 6)
        for r in range(6):
            loc = part.local(r)
            assert part.column_chunk_range(r) == (loc.vertex_lo, loc.vertex_hi)
            for v in range(loc.vertex_lo, loc.vertex_hi):
                local_row = loc.partial_neighbors(np.array([v]))
                assert np.array_equal(np.sort(local_row), np.sort(small_graph.neighbors(v)))

    def test_neighbors_of_frontier(self, small_graph):
        part = one_d(small_graph, 4)
        frontier = part.owned_vertices(1)[:5]
        merged = part.local(1).partial_neighbors(frontier)
        assert np.array_equal(np.sort(merged), sorted_neighbors(small_graph, frontier))

    def test_neighbors_of_frontier_empty(self, small_graph):
        loc = one_d(small_graph, 4).local(0)
        assert loc.partial_neighbors(np.empty(0, dtype=VERTEX_DTYPE)).size == 0

    def test_non_owned_frontier_rejected(self, small_graph):
        """A vertex's list lives on its owner alone: another rank's lookup
        finds nothing for it."""
        part = one_d(small_graph, 4)
        foreign = part.owned_vertices(2)[:1]
        assert small_graph.degree(int(foreign[0])) > 0
        assert part.local(0).partial_neighbors(foreign).size == 0

    def test_single_rank(self, small_graph):
        part = one_d(small_graph, 1)
        assert part.local(0).num_owned == small_graph.n
        assert part.local(0).num_stored_entries == small_graph.num_directed_edges

    def test_more_ranks_than_vertices(self, path_graph):
        part = one_d(path_graph, 16)
        total = sum(part.local(r).num_stored_entries for r in range(16))
        assert total == path_graph.num_directed_edges

    def test_zero_ranks_rejected(self, small_graph):
        with pytest.raises(ValueError):
            one_d(small_graph, 0)

    def test_bad_rank_rejected(self, small_graph):
        with pytest.raises(PartitionError):
            one_d(small_graph, 4).local(4)

    def test_memory_footprint_keys(self, small_graph):
        part = one_d(small_graph, 4)
        fp = part.memory_footprint(0)
        assert set(fp) == {
            "owned_vertices", "edge_entries", "nonempty_columns", "unique_row_vertices"
        }
        assert fp["edge_entries"] == sorted_neighbors(small_graph, part.owned_vertices(0)).size

    def test_balance(self, small_graph):
        report = balance_report(one_d(small_graph, 8), "owned_vertices")
        assert report.maximum - report.minimum <= 1
        edge_report = balance_report(one_d(small_graph, 8), "edge_entries")
        # Poisson graphs balance statistically; allow generous slack.
        assert edge_report.imbalance < 1.5
