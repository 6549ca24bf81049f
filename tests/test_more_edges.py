"""Second batch of edge cases across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.spmd import spmd_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.harness.runner import PAPER_OPTS, Run, draw_pairs, execute
from repro.partition.two_d import TwoDPartition
from repro.runtime.clock import SimClock
from repro.session import BfsSession
from repro.types import GraphSpec, GridShape


class TestFiguresStMode:
    def test_fig4a_st_searches(self):
        """The paper's literal random s-t protocol (early termination)."""
        spec = GraphSpec(n=1200, k=8.0, seed=0)
        pairs = tuple(draw_pairs(spec, "fig4a:4:8.0", 3))
        st, full = (
            execute(Run("fig4a", spec, GridShape(2, 2), opts=PAPER_OPTS, pairs=searches)).row()
            for searches in (pairs, tuple((s, None) for s, _t in pairs))
        )
        # early-terminated searches are cheaper than full traversals
        assert 0 < st["mean_time_s"] <= full["mean_time_s"]


class TestSmallPieces:
    def test_column_chunk_range_invalid(self, small_graph):
        part = TwoDPartition(small_graph, GridShape(2, 3))
        with pytest.raises(IndexError):
            part.grid.col_members(3)

    def test_clock_sync_empty_selection(self):
        clock = SimClock(3)
        clock.advance_many(np.array([1.0, 0.0, 0.0]))
        horizon = clock.sync([])
        assert horizon == 0.0  # nothing synced
        assert clock.time[1] == 0.0

    def test_session_on_mcr(self, small_graph):
        session = BfsSession(small_graph, (2, 2), system="mcr-2d")
        result = session.bfs(0)
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))


class TestSpmdDegenerateGrids:
    def test_ring_collectives_on_1xp(self, path_graph):
        opts = BfsOptions(expand_collective="ring", fold_collective="union-ring")
        levels = spmd_bfs(path_graph, (1, 4), 0, opts=opts, timeout=60)
        assert np.array_equal(levels, serial_bfs(path_graph, 0))

    def test_ring_collectives_on_px1(self, path_graph):
        opts = BfsOptions(expand_collective="ring", fold_collective="union-ring")
        levels = spmd_bfs(path_graph, (4, 1), 0, opts=opts, timeout=60)
        assert np.array_equal(levels, serial_bfs(path_graph, 0))

    def test_sent_cache_equivalence(self, small_graph):
        on = spmd_bfs(small_graph, (2, 2), 3, opts=BfsOptions(use_sent_cache=True),
                      timeout=60)
        off = spmd_bfs(small_graph, (2, 2), 3, opts=BfsOptions(use_sent_cache=False),
                       timeout=60)
        assert np.array_equal(on, off)


class TestSweepExportIntegration:
    def test_sweep_to_rows(self):
        rows = [
            execute(Run("sweep-export", GraphSpec(n=n, k=4, seed=1), GridShape(2, 2))).row()
            for n in (100, 140)
        ]
        assert [r["n"] for r in rows] == [100, 140]
        assert all(r["mean_time_s"] > 0 for r in rows)

    def test_machine_variation_in_sweep(self):
        bluegene, mcr = (
            execute(
                Run("machines", GraphSpec(n=120, k=4, seed=1), GridShape(2, 2), system=system)
            ).row()
            for system in ("bluegene-2d", "mcr-2d")
        )
        assert (bluegene["machine"], mcr["machine"]) == ("bluegene", "mcr")
        assert bluegene["mean_compute_s"] > mcr["mean_compute_s"]
