"""Edge cases and error paths not covered by the main suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_communicator, build_engine
from repro.bfs.level_sync import run_bfs
from repro.bfs.options import BfsOptions
from repro.errors import ConfigurationError
from repro.graph.csr import CsrGraph
from repro.machine.bluegene import BLUEGENE_L
from repro.machine.cluster import flat_network_for
from repro.runtime.comm import Communicator
from repro.runtime.network import Network
from repro.types import GridShape, UNREACHED


class TestOptionsValidation:
    def test_unknown_expand_rejected(self):
        with pytest.raises(ConfigurationError, match="expand"):
            BfsOptions(expand_collective="telepathy")

    def test_unknown_fold_rejected(self):
        with pytest.raises(ConfigurationError, match="fold"):
            BfsOptions(fold_collective="telepathy")

    def test_bad_buffer_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            BfsOptions(buffer_capacity=0)

    def test_frozen(self):
        opts = BfsOptions()
        with pytest.raises(AttributeError):
            opts.fold_collective = "ring"


class TestCommunicatorEdges:
    def test_single_rank_allreduce(self):
        comm = Communicator(flat_network_for(GridShape(1, 1)), BLUEGENE_L)
        assert comm.allreduce_sum(np.array([5.0])) == 5.0
        assert comm.allreduce_min(np.array([5.0])) == 5.0

    def test_exchange_with_mask_column(self):
        def round_with(masks):
            comm = Communicator(flat_network_for(GridShape(1, 2)), BLUEGENE_L)
            one = np.array([1], dtype=np.int64)
            comm.exchange_arrays(
                one - 1, one, np.array([1, 2]), one - 1, one + 1, "fold", masks=masks
            )
            return comm

        plain, masked = round_with(None), round_with(np.array([5, 6], dtype=np.uint64))
        # the two mask words ride the same message: 16 more bytes, more
        # time, no more messages, and the barrier still closes the round
        assert masked.stats.total_bytes == plain.stats.total_bytes + 16
        assert masked.stats.total_messages == plain.stats.total_messages == 1
        assert masked.clock.elapsed > plain.clock.elapsed
        assert masked.clock.time[0] == masked.clock.time[1]

    def test_empty_round(self):
        comm = Communicator(flat_network_for(GridShape(1, 2)), BLUEGENE_L)
        none = np.empty(0, dtype=np.int64)
        assert comm.exchange_arrays(none, none, none, none, none, "fold") is None
        assert comm.stats.total_messages == 0


class TestNetworkEdges:
    def test_empty_round_times(self):
        net = Network(flat_network_for(GridShape(1, 2)), BLUEGENE_L)
        empty = np.empty(0, dtype=np.int64)
        send, recv, per_transfer = net.round_times_arrays(empty, empty, empty)
        assert per_transfer.size == 0
        assert send.sum() == 0 and recv.sum() == 0

    def test_zero_length_transfer_still_pays_latency(self):
        net = Network(flat_network_for(GridShape(1, 2)), BLUEGENE_L)
        send, _, _ = net.round_times_arrays(
            np.array([0]), np.array([1]), np.array([0])
        )
        assert send[0] >= BLUEGENE_L.alpha


class TestEngineEdges:
    def test_level_of_unlabelled(self, small_graph):
        engine = build_engine(small_graph, GridShape(2, 2))
        engine.start(0)
        assert engine.level_of(0) == 0
        assert engine.level_of(small_graph.n - 1) == UNREACHED

    def test_assemble_levels_before_any_step(self, small_graph):
        engine = build_engine(small_graph, GridShape(2, 2))
        engine.start(3)
        levels = engine.assemble_levels()
        assert levels[3] == 0
        assert (levels != UNREACHED).sum() == 1

    def test_empty_graph_single_vertex_component(self):
        g = CsrGraph.empty(6)
        result = run_bfs(build_engine(g, GridShape(2, 3)), 2)
        assert result.levels[2] == 0
        assert result.num_reached == 1

    def test_summary_unreachable_target(self):
        g = CsrGraph.from_edges(4, np.array([[0, 1]]))
        result = run_bfs(build_engine(g, GridShape(2, 2)), 0, target=3)
        assert "unreachable" in result.summary()

    def test_comm_reuse_rejected_when_grid_differs(self, small_graph):
        comm = build_communicator(GridShape(4, 1))
        with pytest.raises(ConfigurationError):
            build_engine(small_graph, GridShape(2, 2), comm=comm)


class TestReprHelpers:
    def test_csr_repr(self, small_graph):
        assert "CsrGraph" in repr(small_graph)

    def test_torus_repr(self):
        from repro.machine.torus import Torus3D

        assert "Torus3D" in repr(Torus3D(2, 2, 2))

    def test_balance_report_str(self, small_graph):
        from repro.partition.balance import balance_report
        from repro.partition.two_d import TwoDPartition

        text = str(balance_report(TwoDPartition(small_graph, GridShape(1, 4)), "owned_vertices"))
        assert "imbalance" in text
