"""Tests for the 2D edge partitioning (Section 2.2) — the paper's key layout."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CsrGraph
from repro.graph.generators import poisson_random_graph
from repro.partition.two_d import TwoDPartition
from repro.types import GraphSpec, GridShape, VERTEX_DTYPE
from tests.test_pooled_partition import (
    column_chunk,
    owned,
    partial_neighbors,
    stored_columns,
    stored_rows,
)


def all_entries(graph: CsrGraph) -> set[tuple[int, int]]:
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return set(zip(src.tolist(), graph.indices.tolist()))


def stored_entries(part: TwoDPartition) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for r in range(part.nranks):
        for v in stored_columns(part, r).tolist():
            for u in partial_neighbors(part, r, [v]).tolist():
                out.add((u, v))
    return out


GRIDS = [GridShape(2, 2), GridShape(4, 4), GridShape(2, 8), GridShape(8, 2),
         GridShape(3, 5), GridShape(16, 1), GridShape(1, 16)]


class TestStructure:
    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_every_entry_stored_exactly_once(self, small_graph, grid):
        part = TwoDPartition(small_graph, grid)
        total = sum(stored_rows(part, r).size for r in range(part.nranks))
        assert total == small_graph.num_directed_edges
        assert stored_entries(part) == all_entries(small_graph)

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_vertices_partitioned(self, small_graph, grid):
        part = TwoDPartition(small_graph, grid)
        owned_ids = np.sort(np.concatenate([owned(part, r) for r in range(part.nranks)]))
        assert np.array_equal(owned_ids, np.arange(small_graph.n))

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_owner_of_consistent(self, small_graph, grid):
        part = TwoDPartition(small_graph, grid)
        for r in range(part.nranks):
            assert (part.owner_of(owned(part, r)) == r).all()

    def test_expand_locality(self, small_graph):
        """Columns stored on rank (i,j) belong to owners in processor-column j."""
        grid = GridShape(4, 4)
        part = TwoDPartition(small_graph, grid)
        for r in range(16):
            cols = stored_columns(part, r)
            if cols.size:
                owners = part.owner_of(cols)
                assert (owners % grid.cols == r % grid.cols).all()

    def test_fold_locality(self, small_graph):
        """Rows stored on rank (i,j) belong to owners in processor-row i."""
        grid = GridShape(4, 4)
        part = TwoDPartition(small_graph, grid)
        for r in range(16):
            rows = stored_rows(part, r)
            if rows.size:
                owners = part.owner_of(np.unique(rows))
                assert (owners // grid.cols == r // grid.cols).all()

    def test_column_chunk_ranges_cover(self, small_graph):
        grid = GridShape(3, 4)
        part = TwoDPartition(small_graph, grid)
        covered = []
        for j in range(grid.cols):
            lo, hi = column_chunk(part, j)
            covered.extend(range(lo, hi))
        assert covered == list(range(small_graph.n))

    def test_owned_range_inside_column_chunk(self, small_graph):
        """Rank (i,j)'s owned vertices fall inside column chunk j (their edge
        lists live on processor-column j)."""
        grid = GridShape(4, 4)
        part = TwoDPartition(small_graph, grid)
        for r in range(16):
            lo, hi = column_chunk(part, r % grid.cols)
            assert lo <= part.owned_lo[r] <= part.owned_hi[r] <= hi

    def test_equivalent_to_1d_when_degenerate(self, small_graph):
        """R=1: each rank stores the full columns of its owned vertices."""
        part = TwoDPartition(small_graph, GridShape(1, 8))
        for r in range(8):
            for v in owned(part, r).tolist():
                expected = small_graph.neighbors(v)
                if expected.size == 0:
                    assert v not in stored_columns(part, r)
                    continue
                got = np.sort(partial_neighbors(part, r, [v]))
                assert np.array_equal(got, expected)


class TestPartialNeighbors:
    def test_union_over_column_equals_full_edge_lists(self, small_graph):
        """Merging partial lists across a processor-column reconstructs the
        frontier's complete neighbour multiset (Algorithm 2 step 12)."""
        grid = GridShape(4, 2)
        part = TwoDPartition(small_graph, grid)
        owner = 3
        frontier = owned(part, owner)[:7]
        expected = np.sort(
            np.concatenate([small_graph.neighbors(int(v)) for v in frontier])
        )
        pieces = [
            partial_neighbors(part, rank, frontier)
            for rank in grid.col_members(owner % grid.cols)
        ]
        got = np.sort(np.concatenate(pieces))
        assert np.array_equal(got, expected)

    def test_unknown_vertices_skipped(self, small_graph):
        part = TwoDPartition(small_graph, GridShape(4, 4))
        foreign = np.array([small_graph.n - 1], dtype=VERTEX_DTYPE)
        # Vertex from the last column chunk has no partial list on column 0.
        assert foreign[0] not in stored_columns(part, 0)
        assert partial_neighbors(part, 0, foreign).size == 0
        # and a vertex of the chunk without a stored list has an empty slot
        lo, hi = column_chunk(part, 0)
        absent = np.setdiff1d(np.arange(lo, hi), stored_columns(part, 0))
        _, lengths = part.stored_lists(absent, 0)
        assert absent.size and (lengths == 0).all()

    def test_empty_frontier(self, small_graph):
        part = TwoDPartition(small_graph, GridShape(2, 2))
        assert partial_neighbors(part, 0, np.empty(0, dtype=VERTEX_DTYPE)).size == 0


class TestMemoryScalability:
    def test_footprint_keys(self, small_graph):
        fp = TwoDPartition(small_graph, GridShape(2, 2)).memory_footprints()
        assert all(counts.shape == (4,) for counts in fp.values())
        assert set(fp) == {
            "owned_vertices",
            "edge_entries",
            "nonempty_columns",
            "unique_row_vertices",
        }

    def test_section_241_bounds(self):
        """Non-empty edge lists and unique row vertices are O(n/P)-ish:
        bounded by min(edges stored, column-chunk width) — far below n/C."""
        graph = poisson_random_graph(GraphSpec(n=4000, k=6, seed=3))
        grid = GridShape(8, 8)
        part = TwoDPartition(graph, grid)
        fp = part.memory_footprints()
        assert (fp["nonempty_columns"] <= fp["edge_entries"]).all()
        assert (fp["unique_row_vertices"] <= fp["edge_entries"]).all()
        # The paper's bound: expected non-empty lists ~ nk/P (i.e. the
        # per-rank edge entries), not n/C.  Allow 3x statistical slack.
        assert (fp["nonempty_columns"] <= 3 * (graph.n * 6 / part.nranks)).all()

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=12, deadline=None)
    def test_entry_conservation_property(self, rows, cols):
        graph = poisson_random_graph(GraphSpec(n=240, k=5, seed=rows * 16 + cols))
        part = TwoDPartition(graph, GridShape(rows, cols))
        total = sum(stored_rows(part, r).size for r in range(part.nranks))
        assert total == graph.num_directed_edges
