"""Tests for bi-directional BFS (Section 2.3) against networkx distances."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import bidirectional_bfs, build_communicator, build_engine
from repro.bfs.bidirectional import run_bidirectional_bfs
from repro.bfs.level_sync import run_bfs
from repro.errors import ConfigurationError
from repro.graph.csr import CsrGraph
from repro.graph.generators import poisson_random_graph
from repro.types import GraphSpec, GridShape


def nx_distance(graph: CsrGraph, s: int, t: int) -> int | None:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edge_array().tolist())
    try:
        return nx.shortest_path_length(g, s, t)
    except nx.NetworkXNoPath:
        return None


class TestCorrectness:
    @pytest.mark.parametrize("pair", [(0, 1), (0, 399), (10, 350), (42, 43)])
    def test_distances_match_networkx(self, small_graph, pair):
        s, t = pair
        result = bidirectional_bfs(small_graph, (4, 4), s, t)
        assert result.path_length == nx_distance(small_graph, s, t)

    def test_source_equals_target(self, small_graph):
        result = bidirectional_bfs(small_graph, (2, 2), 7, 7)
        assert result.path_length == 0

    def test_adjacent_vertices(self, path_graph):
        result = bidirectional_bfs(path_graph, (2, 2), 3, 4)
        assert result.path_length == 1

    def test_path_graph_extremes(self, path_graph):
        result = bidirectional_bfs(path_graph, (2, 2), 0, 9)
        assert result.path_length == 9

    def test_disconnected_returns_none(self):
        g = CsrGraph.from_edges(6, np.array([[0, 1], [1, 2], [3, 4]]))
        result = bidirectional_bfs(g, (2, 2), 0, 4)
        assert result.path_length is None
        assert not result.found

    def test_1d_layout(self, small_graph):
        result = bidirectional_bfs(small_graph, (4, 1), 0, 200, system="bluegene-1d")
        assert result.path_length == nx_distance(small_graph, 0, 200)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_pairs_property(self, seed):
        rng = np.random.default_rng(seed)
        graph = poisson_random_graph(GraphSpec(n=150, k=4, seed=seed % 7))
        s, t = (int(x) for x in rng.integers(0, graph.n, 2))
        result = bidirectional_bfs(graph, (2, 2), s, t)
        assert result.path_length == nx_distance(graph, s, t)


class TestEfficiency:
    def test_fewer_levels_than_unidirectional(self, small_graph):
        """Both sides together expand about d levels, vs d for one side —
        but each side's frontier stays small; total processed volume drops."""
        s, t = 0, 399
        d = nx_distance(small_graph, s, t)
        result = bidirectional_bfs(small_graph, (4, 4), s, t)
        assert result.forward_levels + result.backward_levels <= d + 2

    def test_less_volume_than_unidirectional_on_large_graph(self):
        graph = poisson_random_graph(GraphSpec(n=4000, k=10, seed=1))
        s, t = 11, 3777
        grid = (4, 4)
        uni = run_bfs(build_engine(graph, grid), s, target=t)
        bi = bidirectional_bfs(graph, grid, s, t)
        assert bi.stats.total_processed < uni.stats.total_processed

    def test_summary(self, small_graph):
        result = bidirectional_bfs(small_graph, (2, 2), 0, 5)
        assert "bi-directional BFS 0->5" in result.summary()


class TestValidation:
    def test_same_engine_twice_rejected(self, small_graph):
        comm = build_communicator(GridShape(2, 2))
        engine = build_engine(small_graph, (2, 2), comm=comm)
        with pytest.raises(ConfigurationError):
            run_bidirectional_bfs(engine, engine, 0, 1)

    def test_different_comms_rejected(self, small_graph):
        fwd = build_engine(small_graph, (2, 2))
        bwd = build_engine(small_graph, (2, 2))
        with pytest.raises(ConfigurationError):
            run_bidirectional_bfs(fwd, bwd, 0, 1)

    def test_out_of_range_vertices_rejected(self, small_graph):
        comm = build_communicator(GridShape(2, 2))
        fwd = build_engine(small_graph, (2, 2), comm=comm)
        bwd = build_engine(small_graph, (2, 2), comm=comm)
        from repro.errors import SearchError

        with pytest.raises(SearchError):
            run_bidirectional_bfs(fwd, bwd, 0, small_graph.n)
