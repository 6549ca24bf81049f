"""Tests for the 1D vertex partitioning (Algorithm 1's layout).

1D partitioning is 2D partitioning on a ``1 x P`` mesh (Section 2.2): the
:class:`TwoDPartition` built there, where each rank's column chunk is its
own vertex block, so it stores the full edge list of every vertex it owns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import engine_mesh
from repro.partition.balance import balance_report
from repro.partition.one_d import OneDPartition
from repro.partition.two_d import TwoDPartition
from repro.types import GridShape, VERTEX_DTYPE, resolve_system
from tests.test_pooled_partition import (
    column_chunk,
    owned,
    partial_neighbors,
    stored_columns,
    stored_rows,
)


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
        total = sum(stored_rows(part, r).size for r in range(8))
        assert total == small_graph.num_directed_edges

    def test_owned_vertices_partition_the_graph(self, small_graph):
        part = one_d(small_graph, 5)
        owned_ids = np.concatenate([owned(part, r) for r in range(5)])
        assert np.array_equal(owned_ids, np.arange(small_graph.n))

    def test_owner_of_matches_owned(self, small_graph):
        part = one_d(small_graph, 5)
        for r in range(5):
            assert (part.owner_of(owned(part, r)) == r).all()

    def test_local_edge_lists_match_graph(self, small_graph):
        """At R = 1 every partial edge list is the vertex's full list."""
        part = one_d(small_graph, 6)
        for r in range(6):
            assert column_chunk(part, r) == (part.owned_lo[r], part.owned_hi[r])
            for v in owned(part, r).tolist():
                local_row = partial_neighbors(part, r, [v])
                assert np.array_equal(np.sort(local_row), np.sort(small_graph.neighbors(v)))

    def test_neighbors_of_frontier(self, small_graph):
        part = one_d(small_graph, 4)
        frontier = owned(part, 1)[:5]
        merged = partial_neighbors(part, 1, frontier)
        assert np.array_equal(np.sort(merged), sorted_neighbors(small_graph, frontier))

    def test_neighbors_of_frontier_empty(self, small_graph):
        part = one_d(small_graph, 4)
        assert partial_neighbors(part, 0, np.empty(0, dtype=VERTEX_DTYPE)).size == 0

    def test_non_owned_frontier_rejected(self, small_graph):
        """A vertex's list lives on its owner alone: another rank's lookup
        finds nothing for it."""
        part = one_d(small_graph, 4)
        foreign = owned(part, 2)[:1]
        assert small_graph.degree(int(foreign[0])) > 0
        assert foreign[0] not in stored_columns(part, 0)
        assert partial_neighbors(part, 0, foreign).size == 0

    def test_single_rank(self, small_graph):
        part = one_d(small_graph, 1)
        assert part.owned_hi[0] - part.owned_lo[0] == small_graph.n
        assert stored_rows(part, 0).size == small_graph.num_directed_edges

    def test_more_ranks_than_vertices(self, path_graph):
        part = one_d(path_graph, 16)
        total = sum(stored_rows(part, r).size for r in range(16))
        assert total == path_graph.num_directed_edges

    def test_zero_ranks_rejected(self, small_graph):
        with pytest.raises(ValueError):
            one_d(small_graph, 0)

    def test_bad_rank_rejected(self, small_graph):
        with pytest.raises(IndexError):
            one_d(small_graph, 4).grid.coords_of(4)

    def test_memory_footprint_keys(self, small_graph):
        part = one_d(small_graph, 4)
        fp = part.memory_footprints()
        assert set(fp) == {
            "owned_vertices", "edge_entries", "nonempty_columns", "unique_row_vertices"
        }
        assert fp["edge_entries"][0] == sorted_neighbors(small_graph, owned(part, 0)).size

    def test_balance(self, small_graph):
        report = balance_report(one_d(small_graph, 8), "owned_vertices")
        assert report.maximum - report.minimum <= 1
        edge_report = balance_report(one_d(small_graph, 8), "edge_entries")
        # Poisson graphs balance statistically; allow generous slack.
        assert edge_report.imbalance < 1.5
