"""Tests for graph components, the trace recorder, and result export."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.api import build_communicator, build_engine
from repro.bfs.level_sync import run_bfs
from repro.graph.components import (
    component_sizes,
    connected_components,
    giant_component,
    sample_connected_pair,
    sample_unreachable_pair,
)
from repro.graph.csr import CsrGraph
from repro.harness.runner import Run, execute, write_csv, write_json
from repro.runtime.trace import TraceRecorder
from repro.types import GraphSpec, GridShape


@pytest.fixture()
def two_component_graph() -> CsrGraph:
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5]])
    return CsrGraph.from_edges(7, edges)  # vertex 6 isolated


class TestComponents:
    def test_labels(self, two_component_graph):
        labels = connected_components(two_component_graph)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]
        assert labels[6] not in (labels[0], labels[3])

    def test_sizes_sorted(self, two_component_graph):
        assert component_sizes(two_component_graph).tolist() == [3, 3, 1]

    def test_giant_component(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [5, 6]])
        giant = giant_component(CsrGraph.from_edges(7, edges))
        assert giant.tolist() == [0, 1, 2, 3]

    def test_sample_connected_pair(self, two_component_graph):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s, t = sample_connected_pair(two_component_graph, rng)
            labels = connected_components(two_component_graph)
            assert labels[s] == labels[t] and s != t

    def test_sample_unreachable_pair(self, two_component_graph):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s, t = sample_unreachable_pair(two_component_graph, rng)
            labels = connected_components(two_component_graph)
            assert labels[s] != labels[t]

    def test_connected_graph_has_no_unreachable_pair(self, path_graph):
        with pytest.raises(ValueError):
            sample_unreachable_pair(path_graph, np.random.default_rng(0))

    def test_empty_graph_has_no_connected_pair(self):
        with pytest.raises(ValueError):
            sample_connected_pair(CsrGraph.empty(3), np.random.default_rng(0))


class TestTraceRecorder:
    def _run_traced(self, graph):
        grid = GridShape(2, 2)
        comm = build_communicator(grid)
        engine = build_engine(graph, grid, comm=comm)
        with TraceRecorder(comm) as trace:
            run_bfs(engine, 0)
        return comm, trace

    def test_captures_messages(self, small_graph):
        comm, trace = self._run_traced(small_graph)
        assert len(trace.events) == comm.stats.total_messages
        total = sum(e.num_vertices for e in trace.events)
        assert total == comm.stats.total_processed
        assert sum(e.raw_bytes for e in trace.events) == comm.stats.total_bytes
        assert (
            sum(e.encoded_bytes for e in trace.events)
            == comm.stats.total_encoded_bytes
        )

    def test_event_fields_valid(self, small_graph):
        comm, trace = self._run_traced(small_graph)
        for event in trace.events:
            assert 0 <= event.src < comm.nranks
            assert 0 <= event.dst < comm.nranks
            assert event.num_vertices > 0
            assert event.raw_bytes == event.num_vertices * comm.model.bytes_per_vertex
            assert event.encoded_bytes == event.raw_bytes  # raw codec default
            assert event.phase in ("expand", "fold")
            assert event.time >= 0

    def test_encoded_bytes_match_stats_under_codec(self, small_graph):
        grid = GridShape(2, 2)
        comm = build_communicator(grid, wire="adaptive")
        engine = build_engine(small_graph, grid, comm=comm)
        with TraceRecorder(comm) as trace:
            run_bfs(engine, 0)
        assert (
            sum(e.encoded_bytes for e in trace.events)
            == comm.stats.total_encoded_bytes
        )
        assert any(e.encoded_bytes < e.raw_bytes for e in trace.events)

    def test_analysis_helpers(self, small_graph):
        comm, trace = self._run_traced(small_graph)
        sent = trace.per_rank_sent()
        assert sent.sum() == comm.stats.total_processed
        volumes = trace.per_phase_volume()
        assert set(volumes) <= {"expand", "fold"}
        src, dst, volume = trace.busiest_pair()
        assert volume >= max(1, sent.max() // comm.nranks)

    def test_uninstall_restores(self, small_graph):
        grid = GridShape(2, 2)
        comm = build_communicator(grid)
        trace = TraceRecorder(comm).install()
        trace.uninstall()
        engine = build_engine(small_graph, grid, comm=comm)
        run_bfs(engine, 0)
        assert trace.events == []

    def test_empty_trace(self, small_graph):
        comm = build_communicator(GridShape(2, 2))
        trace = TraceRecorder(comm)
        assert trace.busiest_pair() is None

    def test_csv_export(self, small_graph, tmp_path):
        _comm, trace = self._run_traced(small_graph)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace.events)
        assert set(rows[0]) == {
            "time", "src", "dst", "num_vertices",
            "raw_bytes", "encoded_bytes", "phase",
        }

    def test_json_export(self, small_graph, tmp_path):
        _comm, trace = self._run_traced(small_graph)
        path = tmp_path / "trace.json"
        trace.to_json(path)
        data = json.loads(path.read_text())
        assert len(data) == len(trace.events)
        assert data[0]["phase"] in ("expand", "fold")


class TestExport:
    def _rows(self):
        run = Run("export-test", GraphSpec(n=150, k=5, seed=1), GridShape(2, 2))
        return [execute(run).row()]

    def test_rows(self):
        rows = self._rows()
        assert rows[0]["name"] == "export-test"
        assert rows[0]["mean_time_s"] > 0

    def test_csv(self, tmp_path):
        path = tmp_path / "results.csv"
        write_csv(self._rows(), path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["mean_time_s"]) > 0

    def test_json(self, tmp_path):
        path = tmp_path / "results.json"
        write_json(self._rows(), path)
        data = json.loads(path.read_text())
        assert data[0]["layout"] == "2d"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")
