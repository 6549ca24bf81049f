"""Tests for repro.graph.csr."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.csr import CsrGraph, sorted_edge_keys
from repro.types import VERTEX_DTYPE


def edges_strategy(n: int):
    """Random (m, 2) edge arrays over n vertices (may include loops/dups)."""
    return st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60
    ).map(lambda pairs: np.array(pairs, dtype=VERTEX_DTYPE).reshape(-1, 2))


class TestConstruction:
    def test_from_edges_symmetric(self):
        g = CsrGraph.from_edges(4, np.array([[0, 1], [1, 2]]))
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0, 2]
        assert g.neighbors(2).tolist() == [1]
        assert g.neighbors(3).tolist() == []

    def test_self_loops_dropped(self):
        g = CsrGraph.from_edges(3, np.array([[0, 0], [0, 1]]))
        assert g.num_edges == 1

    def test_duplicate_edges_dropped(self):
        g = CsrGraph.from_edges(3, np.array([[0, 1], [1, 0], [0, 1]]))
        assert g.num_edges == 1

    def test_empty(self):
        g = CsrGraph.empty(5)
        assert g.n == 5
        assert g.num_edges == 0
        assert g.average_degree == 0

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CsrGraph.from_edges(3, np.array([[0, 3]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            CsrGraph.from_edges(3, np.array([0, 1, 2]))

    def test_inconsistent_indptr_rejected(self):
        with pytest.raises(ValueError):
            CsrGraph(2, np.array([0, 1, 0]), np.array([1, 0]))

    def test_no_edges_input(self):
        g = CsrGraph.from_edges(4, np.empty((0, 2)))
        assert g.num_edges == 0


@st.composite
def edge_lists(draw, max_n: int = 12):
    """``(n, pairs)``: ``n`` in ``0 .. max_n`` and endpoint pairs over it,
    with self-loops, duplicates and both orientations of some edges."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    flipped = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return n, pairs + [(v, u) for u, v in flipped]


def reference_rows(n: int, pairs, *, symmetrize: bool = True) -> list[list[int]]:
    """Sorted adjacency rows of the entry set, built from a Python set."""
    entries = {(u, v) for u, v in pairs if u != v}
    if symmetrize:
        entries |= {(v, u) for u, v in entries}
    return [sorted(v for u, v in entries if u == row) for row in range(n)]


def rows_of(g: CsrGraph) -> list[list[int]]:
    """The graph's rows, after checking the CSR arrays' form."""
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    assert g.indptr.shape == (g.n + 1,) and g.indptr[0] == 0
    assert np.all(np.diff(g.indptr) >= 0)
    rows = [g.indices[g.indptr[u] : g.indptr[u + 1]].tolist() for u in range(g.n)]
    assert all(row == sorted(set(row)) for row in rows)
    return rows


class TestOneKeyBuild:
    @given(edge_lists(), st.booleans())
    def test_from_edges_matches_a_set_reference(self, graph, symmetrize):
        n, pairs = graph
        edges = np.array(pairs, dtype=VERTEX_DTYPE).reshape(-1, 2)
        g = CsrGraph.from_edges(n, edges, symmetrize=symmetrize)
        assert rows_of(g) == reference_rows(n, pairs, symmetrize=symmetrize)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_empty_edge_arrays(self, n):
        for edges in (np.empty((0, 2), dtype=np.int64), np.empty(0), []):
            g = CsrGraph.from_edges(n, edges)
            assert rows_of(g) == [[]] * n

    def test_keys_are_sorted_and_distinct(self):
        keys = sorted_edge_keys(4, np.array([3, 1, 1, 2, 0]), np.array([0, 2, 2, 2, 3]),
                                symmetrize=True)
        assert keys.dtype == np.int64
        assert keys.tolist() == [0 * 4 + 3, 1 * 4 + 2, 2 * 4 + 1, 3 * 4 + 0]

    @pytest.mark.parametrize("n", [2**32, np.int64(2**32)], ids=["int", "np.int64"])
    def test_n_squared_overflow_raises_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="overflows the int64 edge key"):
                CsrGraph.from_edges(n, np.array([[0, 1]]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_n_whose_keys_fit(self):
        n = math.isqrt(2**63 - 1)
        keys = sorted_edge_keys(n, np.array([n - 1]), np.array([n - 2]), symmetrize=True)
        assert keys.tolist() == [(n - 2) * n + n - 1, (n - 1) * n + n - 2]
        with pytest.raises(ValueError):
            sorted_edge_keys(n + 1, np.array([0]), np.array([1]))


class TestQueries:
    def test_degree_array_and_scalar(self, path_graph):
        degrees = path_graph.degree()
        assert degrees.tolist() == [1] + [2] * 8 + [1]
        assert path_graph.degree(0) == 1
        assert path_graph.degree(5) == 2

    def test_degree_out_of_range(self, path_graph):
        with pytest.raises(IndexError):
            path_graph.degree(10)

    def test_average_degree(self, star_graph):
        assert star_graph.average_degree == pytest.approx(18 / 10)

    def test_neighbors_view_readonly(self, path_graph):
        view = path_graph.neighbors(5)
        with pytest.raises(ValueError):
            view[0] = 99

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(3, 4)
        assert not path_graph.has_edge(3, 5)

    def test_edge_array_roundtrip(self, small_graph):
        rebuilt = CsrGraph.from_edges(small_graph.n, small_graph.edge_array())
        assert np.array_equal(rebuilt.indptr, small_graph.indptr)
        assert np.array_equal(rebuilt.indices, small_graph.indices)

    def test_num_edges_consistent(self, small_graph):
        assert small_graph.num_directed_edges == 2 * small_graph.num_edges


class TestNeighborsOfSet:
    def test_star_center(self, star_graph):
        neigh = star_graph.neighbors_of_set(np.array([0]))
        assert sorted(neigh.tolist()) == list(range(1, 10))

    def test_duplicates_preserved(self, star_graph):
        # Two leaves both report the centre: duplicates are the caller's job.
        neigh = star_graph.neighbors_of_set(np.array([1, 2]))
        assert neigh.tolist() == [0, 0]

    def test_empty_frontier(self, star_graph):
        assert star_graph.neighbors_of_set(np.array([], dtype=VERTEX_DTYPE)).size == 0

    def test_isolated_vertices(self):
        g = CsrGraph.empty(4)
        assert g.neighbors_of_set(np.array([0, 1, 2, 3])).size == 0

    def test_matches_per_vertex_concat(self, small_graph):
        frontier = np.array([3, 17, 101, 250])
        expected = np.concatenate([small_graph.neighbors(int(v)) for v in frontier])
        got = small_graph.neighbors_of_set(frontier)
        assert np.array_equal(got, expected)

    @given(edges_strategy(12), st.lists(st.integers(0, 11), min_size=1, max_size=12))
    def test_property_matches_loop(self, edges, frontier):
        g = CsrGraph.from_edges(12, edges)
        frontier_arr = np.array(sorted(set(frontier)), dtype=VERTEX_DTYPE)
        expected = (
            np.concatenate([g.neighbors(int(v)) for v in frontier_arr])
            if frontier_arr.size
            else np.empty(0, dtype=VERTEX_DTYPE)
        )
        assert np.array_equal(g.neighbors_of_set(frontier_arr), expected)


class TestSymmetryInvariant:
    @given(edges_strategy(10))
    def test_adjacency_symmetric(self, edges):
        g = CsrGraph.from_edges(10, edges)
        for u in range(10):
            for v in g.neighbors(u):
                assert g.has_edge(int(v), u)

    @given(edges_strategy(10))
    def test_rows_sorted_no_dups_no_loops(self, edges):
        g = CsrGraph.from_edges(10, edges)
        for u in range(10):
            row = g.neighbors(u)
            assert np.all(np.diff(row) > 0)  # strictly increasing
            assert u not in row.tolist()
