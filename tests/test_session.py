"""Tests for the reusable query session and path extraction."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.bfs.serial import serial_bfs
from repro.errors import ConfigurationError, SearchError
from repro.faults import FaultPlan
from repro.graph.csr import CsrGraph
from repro.observability.digest import result_digests
from repro.session import BfsSession, extract_path
from repro.types import SystemSpec


def to_networkx(graph: CsrGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edge_array().tolist())
    return g


class TestBfsSession:
    def test_bfs_matches_serial(self, small_graph):
        session = BfsSession(small_graph, (2, 4))
        result = session.bfs(0)
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_repeated_queries_accumulate(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        session.bfs(0)
        session.distance(0, 100)
        assert session.queries_served == 2
        assert session.total_simulated_time > 0

    def test_distance_matches_networkx(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        g = to_networkx(small_graph)
        for s, t in [(0, 1), (5, 300), (42, 42)]:
            try:
                expected = nx.shortest_path_length(g, s, t)
            except nx.NetworkXNoPath:
                expected = None
            assert session.distance(s, t) == expected

    def test_1d_layout(self, small_graph):
        session = BfsSession(small_graph, (4, 1), system="bluegene-1d")
        result = session.bfs(7)
        assert np.array_equal(result.levels, serial_bfs(small_graph, 7))

    def test_1d_needs_degenerate_grid(self, small_graph):
        with pytest.raises(ConfigurationError):
            BfsSession(small_graph, (2, 2), system="bluegene-1d")

    def test_unknown_layout_rejected(self, small_graph):
        with pytest.raises(ConfigurationError):
            BfsSession(small_graph, (2, 2), system=SystemSpec(layout="hex"))

    def test_queries_are_independent(self, small_graph):
        """Each query gets fresh statistics: same query twice, same cost."""
        session = BfsSession(small_graph, (2, 2))
        a = session.bfs(3)
        b = session.bfs(3)
        assert a.elapsed == b.elapsed
        assert a.stats.total_messages == b.stats.total_messages


class TestShortestPath:
    def test_path_is_valid_and_shortest(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        g = to_networkx(small_graph)
        for s, t in [(0, 399), (10, 200), (5, 6)]:
            path = session.shortest_path(s, t)
            expected = nx.shortest_path_length(g, s, t)
            assert path[0] == s and path[-1] == t
            assert len(path) - 1 == expected
            for u, v in zip(path, path[1:]):
                assert small_graph.has_edge(u, v)

    def test_trivial_path(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        assert session.shortest_path(9, 9) == [9]

    def test_disconnected_returns_none(self):
        g = CsrGraph.from_edges(5, np.array([[0, 1], [2, 3]]))
        session = BfsSession(g, (2, 2))
        assert session.shortest_path(0, 3) is None

    def test_extract_path_on_path_graph(self, path_graph):
        levels = serial_bfs(path_graph, 0)
        assert extract_path(path_graph, levels, 0, 9) == list(range(10))

    def test_extract_path_unreached_rejected(self):
        g = CsrGraph.from_edges(4, np.array([[0, 1]]))
        levels = serial_bfs(g, 0)
        with pytest.raises(SearchError, match="not reached"):
            extract_path(g, levels, 0, 3)

    def test_extract_path_wrong_source_rejected(self, path_graph):
        levels = serial_bfs(path_graph, 0)
        with pytest.raises(SearchError, match="not the search source"):
            extract_path(path_graph, levels, 1, 9)


class TestSessionCaching:
    """The session resolves machine/mapping/network/engine exactly once."""

    def test_comms_share_cached_mapping_and_network(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        c1, c2 = session._new_comm(), session._new_comm()
        assert c1 is not c2
        assert c1.mapping is c2.mapping is session._task_mapping
        assert c1.model is c2.model is session._model
        assert c1.network is c2.network is session._network

    def test_engine_is_rebound_not_rebuilt(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        e1 = session._new_engine(session._new_comm())
        e2 = session._new_engine(session._new_comm())
        assert e1 is e2 is session._engine

    def test_rebound_engine_reproduces_levels(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        first = session.bfs(0)
        second = session.bfs(0)
        assert np.array_equal(first.levels, second.levels)
        assert first.elapsed == second.elapsed

    def test_counters_safe_under_threads(self, small_graph):
        import threading

        session = BfsSession(small_graph, (2, 2))
        threads = [
            threading.Thread(target=session._record, args=(0.5,))
            for _ in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert session.queries_served == 16
        assert session.total_simulated_time == pytest.approx(8.0)

    def test_system_spec_path_does_not_warn(self, small_graph):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            BfsSession(small_graph, (4, 1), system=SystemSpec(layout="1d"))

    @pytest.mark.parametrize("faults", ["mild", "crash-spare"])
    def test_fault_plan_sampled_once(self, small_graph, faults, monkeypatch):
        """N queries on one session = N queries on N fresh sessions, digest
        for digest and counter for counter, with the plan sampled once;
        a new ``fault_seed`` still draws a plan of its own."""
        sampled = []
        real = FaultPlan.sample.__func__

        def counting(cls, spec, nranks):
            sampled.append(spec.seed)
            return real(cls, spec, nranks)

        monkeypatch.setattr(FaultPlan, "sample", classmethod(counting))
        sources = [0, 7, 7, 123]
        shared = BfsSession(small_graph, (4, 4), faults=faults)
        reused = [shared.bfs(s) for s in sources]
        assert len(sampled) == 1
        fresh = [BfsSession(small_graph, (4, 4), faults=faults).bfs(s) for s in sources]
        assert [result_digests(r) for r in reused] == [result_digests(r) for r in fresh]
        assert [r.faults for r in reused] == [r.faults for r in fresh]
        del sampled[:]
        reseeded = shared.bfs(0, fault_seed=99)
        assert len(sampled) == 1 and sampled[0] == 99
        other = BfsSession(small_graph, (4, 4), faults=faults).bfs(0, fault_seed=99)
        assert result_digests(reseeded) == result_digests(other)
