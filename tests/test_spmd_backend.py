"""Tests for the real-parallel SPMD multiprocessing backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.spmd import spmd_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.errors import CommunicationError, SearchError
from repro.faults import FaultSpec
from repro.graph.csr import CsrGraph
from repro.graph.generators import poisson_random_graph
from repro.types import GraphSpec, GridShape, UNREACHED


class TestSpmdBfs:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (1, 4), (4, 1), (2, 3)])
    def test_matches_serial(self, small_graph, grid):
        levels = spmd_bfs(small_graph, grid, 0, timeout=60)
        assert np.array_equal(levels, serial_bfs(small_graph, 0))

    def test_various_sources(self, small_graph):
        for source in (1, 200, 399):
            levels = spmd_bfs(small_graph, (2, 2), source, timeout=60)
            assert np.array_equal(levels, serial_bfs(small_graph, source))

    def test_disconnected_graph(self):
        g = CsrGraph.from_edges(30, np.array([[i, i + 1] for i in range(14)]))
        levels = spmd_bfs(g, (2, 2), 0, timeout=60)
        assert np.array_equal(levels, serial_bfs(g, 0))
        assert (levels[15:] == UNREACHED).all()

    def test_no_sent_cache(self, small_graph):
        opts = BfsOptions(use_sent_cache=False)
        levels = spmd_bfs(small_graph, (2, 2), 5, opts=opts, timeout=60)
        assert np.array_equal(levels, serial_bfs(small_graph, 5))

    def test_larger_graph_more_workers(self):
        graph = poisson_random_graph(GraphSpec(n=3000, k=8, seed=3))
        levels = spmd_bfs(graph, (2, 4), 17, timeout=120)
        assert np.array_equal(levels, serial_bfs(graph, 17))

    def test_bad_source_rejected(self, small_graph):
        with pytest.raises(SearchError):
            spmd_bfs(small_graph, (2, 2), small_graph.n)

    def test_grid_tuple_and_shape(self, path_graph):
        a = spmd_bfs(path_graph, (2, 2), 0, timeout=60)
        b = spmd_bfs(path_graph, GridShape(2, 2), 0, timeout=60)
        assert np.array_equal(a, b)

    def test_agrees_with_simulated_engine(self, small_graph):
        from repro.api import distributed_bfs

        sim = distributed_bfs(small_graph, (2, 3), 9)
        real = spmd_bfs(small_graph, (2, 3), 9, timeout=60)
        assert np.array_equal(sim.levels, real)


class TestSpmdCollectives:
    @pytest.mark.parametrize("expand", ["direct", "ring"])
    @pytest.mark.parametrize("fold", ["direct", "union-ring"])
    def test_ring_collectives_match_serial(self, small_graph, expand, fold):
        opts = BfsOptions(expand_collective=expand, fold_collective=fold)
        levels = spmd_bfs(small_graph, (2, 3), 7, opts=opts, timeout=90)
        assert np.array_equal(levels, serial_bfs(small_graph, 7))

    def test_unsupported_collectives_rejected(self, small_graph):
        with pytest.raises(CommunicationError, match="expand"):
            spmd_bfs(small_graph, (2, 2), 0, opts=BfsOptions(expand_collective="two-phase"))
        with pytest.raises(CommunicationError, match="fold"):
            spmd_bfs(small_graph, (2, 2), 0, opts=BfsOptions(fold_collective="bruck"))


class TestSpmdRejectsInertOptions:
    """Options the workers cannot honour are refused, never ignored."""

    def test_buffer_capacity_rejected(self, small_graph):
        # the simulator chunks at the capacity, and chunk counts set the
        # fault fates; the workers send every payload whole
        for faults in (None, FaultSpec(drop_rate=0.05, seed=3)):
            with pytest.raises(CommunicationError, match="buffer_capacity"):
                spmd_bfs(
                    small_graph, (2, 2), 0, opts=BfsOptions(buffer_capacity=4),
                    faults=faults,
                )

    def test_checkpoint_off_rejected_under_faults(self, small_graph):
        off = BfsOptions(checkpoint=False)
        with pytest.raises(CommunicationError, match="checkpoint=False"):
            spmd_bfs(small_graph, (2, 2), 0, opts=off, faults=FaultSpec(drop_rate=0.05))
        # without faults there is nothing to roll back: the option is inert
        # on both backends
        levels = spmd_bfs(small_graph, (2, 2), 0, opts=off, timeout=60)
        assert np.array_equal(levels, serial_bfs(small_graph, 0))


def test_single_rank_runs_the_forked_worker(small_graph):
    """P = 1 takes the same worker and hub as every other mesh: its fault
    report is the plan's, with nothing on the wire, and nothing is sieved."""
    levels, report, sieved = spmd_bfs(
        small_graph, (1, 1), 0, opts=BfsOptions(use_sieve=True),
        faults=FaultSpec(drop_rate=0.05, seed=3), return_report=True,
        return_sieved=True, timeout=60,
    )
    assert np.array_equal(levels, serial_bfs(small_graph, 0))
    assert (report.injected, report.retries, report.rollbacks) == (0, 0, 0)
    assert sieved == 0
