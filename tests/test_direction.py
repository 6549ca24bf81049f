"""Direction-optimizing BFS: policy, bottom-up kernels, hybrid equality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_engine
from repro.backends.spmd import spmd_bfs
from repro.bfs.direction import BOTTOM_UP, DIRECTION_MODES, TOP_DOWN, DirectionPolicy
from repro.bfs.level_sync import run_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.errors import CommunicationError, ConfigurationError
from repro.faults import FaultSpec
from repro.graph.generators import build_graph
from repro.runtime.comm import Communicator
from repro.types import GraphSpec, GridShape, SystemSpec

RMAT = GraphSpec.rmat(10, edge_factor=8, seed=3)
POISSON = GraphSpec(n=2_000, k=8.0, seed=3)


@pytest.fixture(scope="module")
def rmat_graph():
    return build_graph(RMAT)


@pytest.fixture(scope="module")
def poisson_graph():
    return build_graph(POISSON)


class TestDirectionPolicy:
    def test_coerce_accepts_mode_names(self):
        for mode in DIRECTION_MODES:
            assert DirectionPolicy.coerce(mode).mode == mode

    def test_coerce_passes_policies_through(self):
        policy = DirectionPolicy(mode="hybrid", alpha=4.0)
        assert DirectionPolicy.coerce(policy) is policy

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            DirectionPolicy.coerce(42)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown direction mode"):
            DirectionPolicy(mode="sideways")

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            DirectionPolicy(mode="hybrid", alpha=0.0)
        with pytest.raises(ValueError):
            DirectionPolicy(mode="hybrid", beta=-1.0)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            DirectionPolicy(mode="model", schedule=("top-down", "diagonal"))

    def test_fixed_modes_never_switch(self):
        td = DirectionPolicy(mode="top-down")
        bu = DirectionPolicy(mode="bottom-up")
        assert td.decide(3, 900, 100, 1000) == TOP_DOWN
        assert bu.decide(3, 1, 999, 1000) == BOTTOM_UP
        assert not td.may_go_bottom_up
        assert bu.may_go_bottom_up

    def test_hybrid_switch_and_hysteresis(self):
        policy = DirectionPolicy(mode="hybrid", alpha=4.0, beta=10.0)
        n = 1000
        # small frontier stays top-down
        assert policy.decide(1, 10, 900, n, TOP_DOWN) == TOP_DOWN
        # frontier > unvisited/alpha flips to bottom-up
        assert policy.decide(2, 300, 700, n, TOP_DOWN) == BOTTOM_UP
        # hysteresis: once bottom-up, stays until frontier < n/beta
        assert policy.decide(3, 200, 100, n, BOTTOM_UP) == BOTTOM_UP
        assert policy.decide(4, 50, 50, n, BOTTOM_UP) == TOP_DOWN
        # empty frontier / nothing left always runs top-down
        assert policy.decide(5, 0, 500, n, BOTTOM_UP) == TOP_DOWN
        assert policy.decide(5, 500, 0, n, BOTTOM_UP) == TOP_DOWN

    def test_model_schedule_wins_within_horizon(self):
        policy = DirectionPolicy(
            mode="model", schedule=(TOP_DOWN, BOTTOM_UP, TOP_DOWN)
        )
        assert policy.decide(1, 1, 999999, 10**6, TOP_DOWN) == BOTTOM_UP
        assert policy.decide(2, 10**5, 10, 10**6, BOTTOM_UP) == TOP_DOWN

    def test_model_for_poisson_precomputes_switch(self):
        policy = DirectionPolicy.model_for(POISSON)
        assert policy.mode == "model"
        assert BOTTOM_UP in policy.schedule
        # the schedule starts top-down: level 0 is one source vertex
        assert policy.schedule[0] == TOP_DOWN

    def test_model_for_rmat_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="Poisson"):
            policy = DirectionPolicy.model_for(RMAT)
        assert policy.mode == "hybrid"

    def test_options_coerce_and_reject(self):
        opts = BfsOptions(direction="hybrid")
        assert isinstance(opts.direction, DirectionPolicy)
        assert opts.direction.mode == "hybrid"
        with pytest.raises(ConfigurationError):
            BfsOptions(direction="sideways")
        with pytest.raises(ConfigurationError):
            BfsOptions(direction=3.5)


def _levels(graph, grid, layout, direction, wire=None, observe=None):
    extra = {}
    if wire is not None:
        extra["wire"] = wire
    if observe is not None:
        extra["observe"] = observe
    engine = build_engine(
        graph,
        GridShape(*grid),
        opts=BfsOptions(direction=direction),
        system=SystemSpec(layout=layout, **extra),
    )
    return run_bfs(engine, 0)


LAYOUTS = [((4, 1), "1d"), ((2, 2), "2d"), ((2, 4), "2d")]


class TestHybridEquality:
    @pytest.mark.parametrize("grid,layout", LAYOUTS)
    @pytest.mark.parametrize("direction", ["hybrid", "bottom-up", "model"])
    def test_rmat_levels_match_top_down(self, rmat_graph, grid, layout, direction):
        policy = (
            DirectionPolicy.model_for(POISSON) if direction == "model" else direction
        )
        base = _levels(rmat_graph, grid, layout, "top-down")
        result = _levels(rmat_graph, grid, layout, policy)
        assert np.array_equal(result.levels, base.levels)

    @pytest.mark.parametrize("grid,layout", LAYOUTS)
    def test_poisson_levels_match_top_down(self, poisson_graph, grid, layout):
        base = _levels(poisson_graph, grid, layout, "top-down")
        for direction in ("hybrid", "bottom-up"):
            result = _levels(poisson_graph, grid, layout, direction)
            assert np.array_equal(result.levels, base.levels)

    @pytest.mark.parametrize("wire", ["delta-varint", "bitmap", "adaptive"])
    def test_codecs_do_not_change_hybrid_levels(self, rmat_graph, wire):
        base = _levels(rmat_graph, (2, 2), "2d", "top-down")
        result = _levels(rmat_graph, (2, 2), "2d", "hybrid", wire=wire)
        assert np.array_equal(result.levels, base.levels)

    @pytest.mark.parametrize("grid,layout", LAYOUTS)
    def test_hybrid_cuts_traversed_edges_on_rmat(self, rmat_graph, grid, layout):
        td = _levels(rmat_graph, grid, layout, "top-down")
        hy = _levels(rmat_graph, grid, layout, "hybrid")
        assert hy.stats.total_edges_scanned * 2 <= td.stats.total_edges_scanned
        counts = hy.stats.direction_counts()
        assert counts.get("bottom-up", 0) > 0
        assert td.stats.direction_counts() == {"top-down": td.num_levels}

    def test_top_down_clock_unchanged_by_policy_plumbing(self, poisson_graph):
        # the decision itself is charge-free: a pure top-down run must not
        # cost a single simulated nanosecond more than before the feature
        a = _levels(poisson_graph, (2, 2), "2d", "top-down")
        b = _levels(poisson_graph, (2, 2), "2d", DirectionPolicy(mode="top-down"))
        assert a.elapsed == b.elapsed
        assert a.stats.total_messages == b.stats.total_messages

    def test_direction_recorded_per_level(self, rmat_graph):
        result = _levels(rmat_graph, (2, 2), "2d", "hybrid")
        dirs = [s.direction for s in result.stats.levels]
        assert set(dirs) == {"top-down", "bottom-up"}
        scanned = result.stats.edges_scanned_per_level()
        assert scanned.sum() == result.stats.total_edges_scanned

    def test_direction_switch_span_emitted(self, rmat_graph):
        result = _levels(rmat_graph, (2, 2), "2d", "hybrid", observe="spans")
        spans = [s for s in result.observability.spans if s.name == "direction-switch"]
        assert spans, "hybrid run on R-MAT must emit direction-switch markers"
        assert {s.args["to"] for s in spans} >= {"bottom-up"}

    def test_metrics_expose_direction_counts(self, rmat_graph):
        from repro.observability.metrics import MetricsRegistry

        result = _levels(rmat_graph, (2, 2), "2d", "hybrid")
        reg = MetricsRegistry.from_result(result)
        assert reg.value("bfs_direction_levels_total", mode="bottom-up") > 0
        assert reg.value("bfs_edges_scanned_total") == float(
            result.stats.total_edges_scanned
        )
        total = reg.value("bfs_direction_levels_total")
        assert total == float(len(result.stats.levels))


class TestBottomUpBitmaps:
    @pytest.mark.parametrize(
        "grid", [GridShape(1, 4), GridShape(4, 1), GridShape(2, 3), GridShape(3, 2)]
    )
    def test_frontier_bitmap_rings_each_processor_row(
        self, poisson_graph, grid, monkeypatch
    ):
        """Each row member sends its successor the row's frontier-bitmap
        blocks but the successor's own (a ring allgather in one transfer);
        each column member sends every column peer its unvisited block."""
        sent = []
        real = Communicator.exchange_summaries

        def spy(self, src, dst, nbytes, phase="sieve"):
            sent.append(sorted(zip(src.tolist(), dst.tolist(), nbytes.tolist())))
            return real(self, src, dst, nbytes, phase)

        monkeypatch.setattr(Communicator, "exchange_summaries", spy)
        engine = build_engine(poisson_graph, grid, opts=BfsOptions(direction="bottom-up"))
        run_bfs(engine, 0)
        R, C = grid.rows, grid.cols
        block = ((engine._owned_spans + 7) // 8).tolist()
        row_total = [sum(block[i * C : (i + 1) * C]) for i in range(R)]
        ring = [
            (m, m - m % C + (m + 1) % C, row_total[m // C] - block[m - m % C + (m + 1) % C])
            for m in range(R * C) if C > 1
        ]
        column = [
            (s, d, block[s])
            for s in range(R * C) for d in range(R * C)
            if s != d and s % C == d % C
        ]
        assert sent and all(level == sorted(ring + column) for level in sent)


class TestSpmdHybrid:
    @pytest.mark.parametrize("direction", ["hybrid", "bottom-up"])
    def test_matches_serial_on_rmat(self, rmat_graph, direction):
        opts = BfsOptions(direction=direction)
        levels = spmd_bfs(rmat_graph, (2, 2), 0, opts=opts, timeout=120)
        assert np.array_equal(levels, serial_bfs(rmat_graph, 0))

    @pytest.mark.parametrize("grid", [(1, 4), (4, 1)], ids=["1x4", "4x1"])
    @pytest.mark.parametrize("direction", ["hybrid", "bottom-up"])
    def test_degenerate_meshes_match_serial_on_rmat(self, rmat_graph, direction, grid):
        """R = 1 and C = 1 are the edge cases of the worker's pooled column
        lookup: one stored-column slice per rank, or one column chunk for all."""
        opts = BfsOptions(direction=direction)
        levels = spmd_bfs(rmat_graph, grid, 0, opts=opts, timeout=120)
        assert np.array_equal(levels, serial_bfs(rmat_graph, 0))

    def test_hybrid_with_codec_matches_serial(self, poisson_graph):
        opts = BfsOptions(direction="hybrid")
        levels = spmd_bfs(
            poisson_graph, (2, 2), 0, opts=opts, wire="delta-varint", timeout=120
        )
        assert np.array_equal(levels, serial_bfs(poisson_graph, 0))


class TestFaultRejection:
    def test_engine_rejects_faults_with_hybrid(self, small_graph):
        engine = build_engine(
            small_graph,
            GridShape(2, 2),
            opts=BfsOptions(direction="hybrid"),
            system=SystemSpec(layout="2d", faults=FaultSpec(drop_rate=0.05)),
        )
        with pytest.raises(ConfigurationError, match="fault"):
            run_bfs(engine, 0)

    def test_engine_allows_faults_top_down(self, small_graph):
        engine = build_engine(
            small_graph,
            GridShape(2, 2),
            opts=BfsOptions(direction="top-down"),
            system=SystemSpec(layout="2d", faults=FaultSpec(drop_rate=0.05)),
        )
        result = run_bfs(engine, 0)
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_spmd_rejects_faults_with_hybrid(self, small_graph):
        with pytest.raises(CommunicationError, match="direction"):
            spmd_bfs(
                small_graph, (2, 2), 0,
                opts=BfsOptions(direction="hybrid"),
                faults=FaultSpec(drop_rate=0.05),
            )
