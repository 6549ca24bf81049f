"""Tests for vertex relabeling (load balance on skewed graphs)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import distributed_bfs
from repro.bfs.serial import serial_bfs
from repro.errors import PartitionError
from repro.graph.csr import CsrGraph
from repro.graph.generators import rmat_edges
from repro.partition.balance import balance_report
from repro.partition.permutation import VertexRelabeling, relabel_graph
from repro.partition.two_d import TwoDPartition
from repro.types import GridShape
from repro.utils.rng import RngFactory

from tests.test_csr import edge_lists, reference_rows, rows_of


def rmat_graph(scale=10, ef=8, seed=4) -> CsrGraph:
    rng = RngFactory(seed).named("test-rmat")
    return CsrGraph.from_edges(1 << scale, rmat_edges(scale, ef, rng))


class TestVertexRelabeling:
    def test_random_is_permutation(self):
        relab = VertexRelabeling.random(100, seed=1)
        assert np.array_equal(np.sort(relab.to_new), np.arange(100))

    def test_roundtrip(self):
        relab = VertexRelabeling.random(50, seed=2)
        ids = np.arange(50)
        assert np.array_equal(relab.old_id(relab.new_id(ids)), ids)
        assert np.array_equal(relab.new_id(relab.old_id(ids)), ids)

    def test_identity(self):
        relab = VertexRelabeling.identity(10)
        assert np.array_equal(relab.new_id(np.arange(10)), np.arange(10))

    def test_non_permutation_rejected(self):
        with pytest.raises(PartitionError):
            VertexRelabeling(np.array([0, 0, 2]))

    def test_out_of_range_rejected(self):
        relab = VertexRelabeling.identity(5)
        with pytest.raises(PartitionError):
            relab.new_id(np.array([5]))

    def test_apply_preserves_structure(self, small_graph):
        relabeled, relab = relabel_graph(small_graph, seed=3)
        assert relabeled.num_edges == small_graph.num_edges
        # edge (u,v) in original <=> (new(u), new(v)) in relabeled
        for u in (0, 17, 101):
            for v in small_graph.neighbors(u):
                assert relabeled.has_edge(
                    int(relab.new_id(np.array([u]))[0]),
                    int(relab.new_id(np.array([int(v)]))[0]),
                )

    def test_apply_wrong_size_rejected(self, small_graph):
        with pytest.raises(PartitionError):
            VertexRelabeling.identity(3).apply(small_graph)

    def test_restore_levels(self, small_graph):
        relabeled, relab = relabel_graph(small_graph, seed=5)
        source_old = 7
        source_new = int(relab.new_id(np.array([source_old]))[0])
        restored = relab.restore_levels(serial_bfs(relabeled, source_new))
        assert np.array_equal(restored, serial_bfs(small_graph, source_old))

    @given(edge_lists(), st.randoms(use_true_random=False))
    def test_apply_matches_a_set_reference(self, graph, random):
        n, pairs = graph
        graph = CsrGraph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        to_new = list(range(n))
        random.shuffle(to_new)
        relabeled = VertexRelabeling(np.array(to_new, dtype=np.int64)).apply(graph)
        renamed = [(to_new[u], to_new[v]) for u, v in pairs]
        assert rows_of(relabeled) == reference_rows(n, renamed)

    @given(st.integers(0, 1000), st.integers(1, 60))
    @settings(max_examples=25)
    def test_bijection_property(self, seed, n):
        relab = VertexRelabeling.random(n, seed)
        assert np.array_equal(relab.to_old[relab.to_new], np.arange(n))


class TestLoadBalanceOnSkewedGraphs:
    def test_relabeling_fixes_rmat_imbalance(self):
        """R-MAT hubs cluster at low ids; contiguous blocks are then badly
        imbalanced.  Random relabeling must cut the imbalance sharply."""
        graph = rmat_graph()
        grid = GridShape(4, 4)
        before = balance_report(TwoDPartition(graph, grid), "edge_entries")
        relabeled, _ = relabel_graph(graph, seed=9)
        after = balance_report(TwoDPartition(relabeled, grid), "edge_entries")
        assert before.imbalance > 1.5  # skew is real
        assert after.imbalance < before.imbalance * 0.7

    def test_bfs_on_relabeled_rmat_correct(self):
        graph = rmat_graph(scale=9)
        relabeled, relab = relabel_graph(graph, seed=11)
        source_old = int(np.argmax(graph.degree()))  # the biggest hub
        source_new = int(relab.new_id(np.array([source_old]))[0])
        result = distributed_bfs(relabeled, (2, 4), source_new)
        restored = relab.restore_levels(result.levels)
        assert np.array_equal(restored, serial_bfs(graph, source_old))
