"""Tests for the communication sieve (cross-level fold deduplication).

The sieve keeps a sender-side shadow of each fold destination's visited
set and drops candidates the shadow already marks.  Shadows are sound
subsets of the true visited sets, so the sieve may only remove
guaranteed-duplicates: every sieved run must reproduce the unsieved
levels byte for byte while measurably shrinking fold traffic, on both
the simulator (1D and 2D) and the SPMD backend — with identical sieved
counts across backends.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.bounds import (
    predicted_level_traffic_bytes,
    predicted_sieved_level_traffic_bytes,
)
from repro.api import distributed_bfs
from repro.backends.spmd import spmd_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.sieve import PooledSieve
from repro.errors import ConfigurationError
from repro.faults import FaultSpec
from repro.graph.generators import build_graph
from repro.machine.bluegene import BLUEGENE_L
from repro.observability.digest import stats_digest
from repro.types import SYSTEM_PRESETS, GraphSpec, GridShape, SystemSpec, resolve_system

SPEC = GraphSpec(n=1_500, k=8.0, seed=11)


@pytest.fixture(scope="module")
def graph():
    return build_graph(SPEC)


SIEVE = BfsOptions(use_sieve=True)


def _pair(graph, grid, system=SystemSpec(), opts=BfsOptions()):
    off = distributed_bfs(graph, grid, 0, opts=opts, system=system)
    on = distributed_bfs(graph, grid, 0, opts=replace(opts, use_sieve=True), system=system)
    return off, on


class TestLevelsIdentity:
    @pytest.mark.parametrize("wire", ["raw", "bitmap", "adaptive"])
    @pytest.mark.parametrize(
        "grid,layout", [((4, 4), "2d"), ((1, 8), "1d")]
    )
    def test_sieved_levels_match_unsieved(self, graph, grid, layout, wire):
        off, on = _pair(graph, grid, SystemSpec(layout=layout, wire=wire))
        assert np.array_equal(off.levels, on.levels)
        assert off.num_levels == on.num_levels
        frontier = [s.frontier_size for s in off.stats.levels]
        assert [s.frontier_size for s in on.stats.levels] == frontier

    def test_hybrid_direction_composes(self, graph):
        opts = BfsOptions(direction="hybrid")
        off, on = _pair(graph, (4, 4), opts=opts)
        assert np.array_equal(off.levels, on.levels)
        assert on.stats.total_sieved > 0

    def test_spmd_levels_match_simulator(self, graph):
        sim = distributed_bfs(graph, (2, 2), 0, opts=SIEVE)
        spmd = spmd_bfs(graph, (2, 2), 0, opts=SIEVE)
        assert np.array_equal(sim.levels, spmd)


class TestTrafficReduction:
    def test_sieve_fires_and_cuts_fold_bytes(self, graph):
        off, on = _pair(graph, (4, 4))
        assert on.stats.total_sieved > 0
        assert (
            on.stats.encoded_bytes_by_phase["fold"]
            < off.stats.encoded_bytes_by_phase["fold"]
        )
        # the summary broadcasts are accounted under their own phase
        assert on.stats.encoded_bytes_by_phase["sieve"] > 0
        assert "sieve" not in off.stats.encoded_bytes_by_phase

    def test_per_level_sieved_sums_to_total(self, graph):
        _, on = _pair(graph, (4, 4))
        assert sum(on.stats.sieved_per_level()) == on.stats.total_sieved

    def test_stats_digest_tracks_sieving(self, graph):
        off, on = _pair(graph, (4, 4))
        # sieve-off runs hash exactly as before (no sieve block), and a
        # run that sieved anything must not collide with it
        assert on.stats.total_sieved > 0
        assert stats_digest(on.stats) != stats_digest(off.stats)


class TestBackendParity:
    @pytest.mark.parametrize("wire", ["raw", "adaptive"])
    def test_sieved_counts_match_simulator(self, graph, wire):
        sim = distributed_bfs(graph, (2, 2), 0, opts=SIEVE, wire=wire)
        levels, sieved = spmd_bfs(
            graph, (2, 2), 0, opts=SIEVE, wire=wire,
            return_sieved=True,
        )
        assert np.array_equal(sim.levels, levels)
        assert sieved == sim.stats.total_sieved > 0

    def test_single_rank_sieves_nothing(self, graph):
        levels, sieved = spmd_bfs(
            graph, (1, 1), 0, opts=SIEVE, return_sieved=True,
        )
        assert sieved == 0
        sim = distributed_bfs(graph, (1, 1), 0, opts=SIEVE)
        assert sim.stats.total_sieved == 0
        assert np.array_equal(sim.levels, levels)


class TestFaultComposition:
    """Sieve × faults: shadows checkpoint/roll back with everything else."""

    #: heavy enough to force rollbacks, recoverable enough to converge
    HEAVY = FaultSpec(seed=0, drop_rate=0.3, max_retries=3)

    @pytest.mark.parametrize(
        "grid,layout", [((4, 4), "2d"), ((1, 8), "1d")]
    )
    @pytest.mark.parametrize("faults", [HEAVY, "crash-spare", "crash-harsh"])
    def test_faulted_sieved_levels_match_fault_free(
        self, graph, grid, layout, faults
    ):
        clean = distributed_bfs(graph, grid, 0, opts=SIEVE, system=SystemSpec(layout=layout))
        faulted = distributed_bfs(
            graph, grid, 0, opts=SIEVE, system=SystemSpec(layout=layout, faults=faults),
        )
        assert np.array_equal(clean.levels, faulted.levels)
        assert faulted.stats.total_sieved > 0

    def test_rollbacks_fire_and_sieved_counts_deterministic(self, graph):
        def run():
            r = distributed_bfs(graph, (4, 4), 0, opts=SIEVE, faults=self.HEAVY)
            return r.stats.total_sieved, r.faults.rollbacks, r.levels.tobytes()

        sieved, rollbacks, _ = run()
        assert rollbacks > 0
        # replayed attempts re-count their sieved candidates (run totals
        # survive abort_level), so the faulted tally exceeds fault-free
        clean = distributed_bfs(graph, (4, 4), 0, opts=SIEVE)
        assert sieved > clean.stats.total_sieved
        assert run() == (sieved, rollbacks, clean.levels.tobytes())

    def test_spmd_parity_under_faults(self, graph):
        # expand filters change the droppable message set, so parity
        # comparisons pin use_expand_filter=False (the SPMD convention)
        opts = BfsOptions(use_sieve=True, use_expand_filter=False)
        spec = FaultSpec(seed=0, drop_rate=0.18, max_retries=1)
        sim = distributed_bfs(graph, (2, 2), 0, opts=opts, faults=spec)
        levels, report, sieved = spmd_bfs(
            graph, (2, 2), 0, opts=opts, faults=spec,
            return_report=True, return_sieved=True,
        )
        assert np.array_equal(sim.levels, levels)
        assert sieved == sim.stats.total_sieved > 0
        assert report.rollbacks == sim.faults.rollbacks > 0
        assert report.injected == sim.faults.injected


class TestRejections:
    @pytest.mark.parametrize("fold", ["direct", "ring", "two-phase", "bruck"])
    def test_non_union_ring_fold_rejected(self, fold):
        """One place rejects sieve x fold — the options, for every backend."""
        with pytest.raises(ConfigurationError, match="union-ring"):
            BfsOptions(use_sieve=True, fold_collective=fold)

    def test_options_are_the_only_sieve_switch(self):
        """The system description has no sieve axis to OR with the options."""
        with pytest.raises(TypeError):
            SystemSpec(sieve=True)
        with pytest.raises(TypeError):
            resolve_system(sieve=True)
        assert not any("sieve" in name for name in SYSTEM_PRESETS)


class TestConfiguration:
    def test_cli_flag_enables_sieve(self, capsys):
        from repro.cli import main

        assert main([
            "bfs", "--n", "400", "--k", "6", "--seed", "3",
            "--grid", "2x2", "--sieve",
        ]) == 0
        assert capsys.readouterr().out


class TestPooledSieveUnit:
    def _sieve(self):
        # two fold groups of two ranks over a 4-rank machine, 10 vertices
        return PooledSieve(
            [[0, 1], [2, 3]], np.array([3, 2, 3, 2], dtype=np.int64), 10
        )

    def test_keep_mask_defaults_open(self):
        sieve = self._sieve()
        senders = np.array([0, 1, 2], dtype=np.int64)
        flat = np.array([5, 0, 9], dtype=np.int64)
        assert sieve.keep_mask(senders, flat).all()

    def test_observe_marks_peers_not_self(self):
        sieve = self._sieve()
        fresh = np.array([4], dtype=np.int64)  # rank 1's fresh vertex
        bounds = np.array([0, 0, 1, 1, 1], dtype=np.int64)
        marks = sieve.observe_segmented(fresh, bounds)
        # only rank 0 (rank 1's sole fold peer) gains a shadow mark
        assert marks.tolist() == [1, 0, 0, 0]
        assert not sieve.keep_mask(
            np.array([0], dtype=np.int64), np.array([4], dtype=np.int64)
        ).any()
        assert sieve.keep_mask(
            np.array([1, 2, 3], dtype=np.int64),
            np.array([4, 4, 4], dtype=np.int64),
        ).all()

    def test_summary_messages_skip_idle_ranks(self):
        sieve = self._sieve()
        src, dst, nbytes = sieve.summary_messages(
            np.array([2, 0, 0, 1], dtype=np.int64)
        )
        assert src.tolist() == [0, 3]
        assert dst.tolist() == [1, 2]
        # header word plus the sender's span bitmap
        assert nbytes.tolist() == [8 + (3 + 7) // 8, 8 + (2 + 7) // 8]
        empty = sieve.summary_messages(np.zeros(4, dtype=np.int64))
        assert all(a.size == 0 for a in empty)

    def test_snapshot_restore_round_trip(self):
        sieve = self._sieve()
        fresh = np.array([1], dtype=np.int64)
        bounds = np.array([0, 1, 1, 1, 1], dtype=np.int64)
        clean = sieve.snapshot()
        sieve.observe_segmented(fresh, bounds)
        marked = sieve.snapshot()
        sieve.restore(clean)
        assert sieve.keep_mask(
            np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)
        ).all()
        sieve.restore(marked)
        assert not sieve.keep_mask(
            np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)
        ).any()
        sieve.reset()
        assert sieve.keep_mask(
            np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)
        ).all()

    def test_checkpoint_cost_is_per_rank_bitmap(self):
        sieve = self._sieve()
        # each rank shadows its peers' spans: rank 0 shadows rank 1's 2
        # vertices, rank 1 shadows rank 0's 3, and so on
        assert sieve.checkpoint_nbytes().tolist() == [
            (2 + 7) // 8, (3 + 7) // 8, (2 + 7) // 8, (3 + 7) // 8,
        ]


class TestBoundsModel:
    def test_sieved_prediction_below_unsieved_fold(self):
        model = BLUEGENE_L
        grid = GridShape(8, 8)
        base = predicted_level_traffic_bytes(20_000, 8.0, grid, model, "raw")
        sieved = predicted_sieved_level_traffic_bytes(
            20_000, 8.0, grid, model, "raw", visited_fraction=0.5
        )
        free = predicted_sieved_level_traffic_bytes(
            20_000, 8.0, grid, model, "raw", visited_fraction=0.0
        )
        # summaries are pure overhead at visited_fraction=0...
        assert free > base
        # ...but a dense mid-search level more than pays for them
        assert sieved < base

    def test_visited_fraction_validated(self):
        model = BLUEGENE_L
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="visited_fraction"):
                predicted_sieved_level_traffic_bytes(
                    1_000, 8.0, GridShape(4, 4), model,
                    visited_fraction=bad,
                )
