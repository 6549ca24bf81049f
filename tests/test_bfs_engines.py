"""Correctness tests for the distributed BFS engines against the serial oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_communicator, build_engine
from repro.bfs.level_sync import LevelSyncEngine, run_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.errors import ConfigurationError, SearchError
from repro.graph.csr import CsrGraph
from repro.partition.two_d import TwoDPartition
from repro.types import GridShape, UNREACHED
from tests.test_pooled_partition import column_chunk, stored_columns, stored_rows


def run_and_compare(graph, grid, system=None, source=0, opts=None):
    result = run_bfs(build_engine(graph, grid, system=system, opts=opts), source)
    assert np.array_equal(result.levels, serial_bfs(graph, source))
    return result


class TestBfs1D:
    @pytest.mark.parametrize("p", [1, 2, 4, 7, 8])
    def test_matches_serial(self, small_graph, p):
        run_and_compare(small_graph, GridShape(p, 1), system="bluegene-1d")

    @pytest.mark.parametrize("fold", ["direct", "ring", "union-ring", "two-phase", "bruck"])
    def test_all_folds(self, small_graph, fold):
        run_and_compare(
            small_graph, GridShape(6, 1), system="bluegene-1d",
            opts=BfsOptions(fold_collective=fold),
        )

    def test_column_orientation(self, small_graph):
        run_and_compare(small_graph, GridShape(1, 6), system="bluegene-1d")

    def test_disconnected_graph(self, sparse_graph):
        run_and_compare(sparse_graph, GridShape(4, 1), system="bluegene-1d", source=17)

    def test_path_graph_levels(self, path_graph):
        result = run_and_compare(path_graph, GridShape(3, 1), system="bluegene-1d")
        assert result.num_levels == 10  # 9 expansion levels + final empty one

    def test_sent_cache_off(self, small_graph):
        run_and_compare(
            small_graph, GridShape(4, 1), system="bluegene-1d",
            opts=BfsOptions(use_sent_cache=False),
        )

    def test_rank_mismatch_rejected(self, small_graph):
        part = TwoDPartition(small_graph, GridShape(1, 4))
        comm = build_communicator(GridShape(8, 1))
        with pytest.raises(ConfigurationError):
            LevelSyncEngine(part, comm)

    def test_step_before_start_rejected(self, small_graph):
        engine = build_engine(small_graph, GridShape(4, 1), system="bluegene-1d")
        with pytest.raises(SearchError):
            engine.step()

    def test_bad_source_rejected(self, small_graph):
        engine = build_engine(small_graph, GridShape(4, 1), system="bluegene-1d")
        with pytest.raises(SearchError):
            engine.start(small_graph.n)


class TestBfs2D:
    @pytest.mark.parametrize(
        "grid",
        [GridShape(1, 1), GridShape(2, 2), GridShape(4, 4), GridShape(2, 8),
         GridShape(8, 2), GridShape(3, 5), GridShape(16, 1), GridShape(1, 16)],
        ids=str,
    )
    def test_matches_serial(self, small_graph, grid):
        run_and_compare(small_graph, grid)

    @pytest.mark.parametrize("expand", ["direct", "ring", "two-phase", "recursive-doubling"])
    @pytest.mark.parametrize("fold", ["direct", "ring", "union-ring", "two-phase", "bruck"])
    def test_all_collective_combinations(self, small_graph, expand, fold):
        run_and_compare(
            small_graph,
            GridShape(3, 4),
            opts=BfsOptions(expand_collective=expand, fold_collective=fold),
        )

    def test_no_filter_no_cache(self, small_graph):
        run_and_compare(
            small_graph,
            GridShape(4, 4),
            opts=BfsOptions(use_sent_cache=False, use_expand_filter=False),
        )

    def test_buffer_capped(self, small_graph):
        run_and_compare(small_graph, GridShape(4, 4), opts=BfsOptions(buffer_capacity=16))

    def test_disconnected_graph(self, sparse_graph):
        result = run_and_compare(sparse_graph, GridShape(3, 3), source=5)
        assert (result.levels == UNREACHED).any()  # k=3 graph has stragglers

    def test_star_from_leaf(self, star_graph):
        result = run_and_compare(star_graph, GridShape(2, 2), source=4)
        assert result.levels[0] == 1
        assert result.levels[4] == 0

    def test_singleton_graph(self):
        g = CsrGraph.empty(1)
        result = run_bfs(build_engine(g, GridShape(1, 1)), 0)
        assert result.levels.tolist() == [0]

    def test_more_ranks_than_vertices(self, path_graph):
        run_and_compare(path_graph, GridShape(4, 4))

    def test_grid_mismatch_rejected(self, small_graph):
        part = TwoDPartition(small_graph, GridShape(2, 2))
        comm = build_communicator(GridShape(4, 1))
        with pytest.raises(ConfigurationError):
            LevelSyncEngine(part, comm)

    @pytest.mark.parametrize("grid", [GridShape(4, 4), GridShape(3, 2), GridShape(1, 4)], ids=str)
    def test_expand_targets_follow_the_filter(self, small_graph, grid):
        """Filter off: every column peer of the owner, ascending.  Filter
        on: only those holding a partial edge list for the vertex."""
        dense = build_engine(
            small_graph, grid, opts=BfsOptions(use_expand_filter=False)
        )
        filtered = build_engine(small_graph, grid)
        indptr, dst = dense._expand_targets()
        f_indptr, f_dst = filtered._expand_targets()
        stored = [
            set(stored_columns(filtered.partition, r).tolist()) for r in range(grid.size)
        ]
        for v in range(small_graph.n):
            owner = dense.owner_rank(v)
            peers = [
                r for r in dense.grid.col_members(owner % grid.cols) if r != owner
            ]
            assert dst[indptr[v] : indptr[v + 1]].tolist() == peers
            holders = [r for r in peers if v in stored[r]]
            assert f_dst[f_indptr[v] : f_indptr[v + 1]].tolist() == holders

    def test_expand_merge_never_sees_a_duplicate(self, small_graph):
        """F-bar is a splice of *disjoint* sets, so it never drops an entry.

        A rank's own frontier holds vertices it owns; what column peers
        send it they own — owners are disjoint, so each rank's F-bar is
        strictly increasing and is exactly its own frontier plus what its
        peers sent, every mask word still beside its vertex.  Covers the
        direct expand with and without the expand filter and the ring
        expand, each with and without a mask column.  (Discovery, where
        duplicates do occur, dedups in the sent pool's slot space instead.)
        """
        grid = GridShape(4, 2)
        rng = np.random.default_rng(11)
        n = small_graph.n
        frontier = np.sort(rng.choice(n, size=n // 3, replace=False))
        word = rng.integers(1, np.iinfo(np.uint64).max, size=n, dtype=np.uint64)
        for opts, filtered in (
            (BfsOptions(), True),
            (BfsOptions(use_expand_filter=False), False),
            (BfsOptions(expand_collective="ring"), False),
        ):
            for with_masks in (False, True):
                engine = build_engine(small_graph, grid, opts=opts)
                nranks = engine.comm.nranks
                owner = engine.partition.owner_of(frontier)
                fflat = frontier[np.argsort(owner, kind="stable")]
                fbounds = np.concatenate(
                    ([0], np.cumsum(np.bincount(owner, minlength=nranks)))
                )
                fmasks = word[fflat] if with_masks else None
                engine.comm.begin_level(0)
                flat, bounds, masks = engine._expand_step(fflat, fbounds, fmasks)
                assert (masks is None) == (not with_masks)
                received = 0
                for r in range(nranks):
                    fbar = flat[bounds[r] : bounds[r + 1]]
                    own = fflat[fbounds[r] : fbounds[r + 1]]
                    holds = stored_columns(engine.partition, r)
                    sent = [
                        v
                        for p in engine.grid.col_members(r % grid.cols)
                        if p != r
                        for v in fflat[fbounds[p] : fbounds[p + 1]]
                        if not filtered or v in holds
                    ]
                    received += len(sent)
                    assert (np.diff(fbar) > 0).all()
                    assert np.intersect1d(own, sent).size == 0
                    assert np.array_equal(fbar, np.union1d(own, sent))
                    if with_masks:
                        assert np.array_equal(masks[bounds[r] : bounds[r + 1]], word[fbar])
                assert received > 0

    @pytest.mark.parametrize(
        "n, grid, edges",
        [
            # 37 vertices over 6 blocks: column chunks differ in size by one
            (37, GridShape(2, 3), "poisson"),
            # edges only among the lowest vertices: most ranks store no
            # edge at all, and every other vertex is isolated
            (37, GridShape(3, 2), "corner"),
            (37, GridShape(1, 5), "poisson"),
            (37, GridShape(5, 1), "poisson"),
            (37, GridShape(1, 5), "corner"),
            (37, GridShape(5, 1), "corner"),
        ],
        ids=str,
    )
    def test_direct_index_lookup_matches_a_searched_one(self, n, grid, edges):
        """``_gather_slots``' direct index returns what a per-rank search of
        the graph's edge lists returns, for every vertex of every rank's
        column chunk — stored or not: rank ``(i, j)``'s list of ``v`` is
        ``v``'s neighbours in block rows ``s * R + i``, ascending, and
        their slots are their positions in the rank's row universe."""
        rng = np.random.default_rng(5)
        span = n if edges == "poisson" else 6
        pairs = rng.integers(0, span, size=(3 * span, 2))
        graph = CsrGraph.from_edges(n, pairs)
        engine = build_engine(graph, grid)
        part, nranks = engine.partition, engine.comm.nranks
        if edges == "corner":
            assert any(stored_rows(part, r).size == 0 for r in range(nranks))
        row_block = part.dist.part_of(np.arange(n))
        fbar, bounds, want_slots, want_lengths = [], [0], [], []
        for r in range(nranks):
            lo, hi = column_chunk(part, r % grid.cols)
            universe = part.row_ids[part.row_bounds[r] : part.row_bounds[r + 1]]
            for v in range(lo, hi):
                rows = graph.neighbors(v)
                rows = rows[row_block[rows] % grid.rows == r // grid.cols]
                want_slots.append(part.row_bounds[r] + np.searchsorted(universe, rows))
                fbar.append(v)
                want_lengths.append(rows.size)
            bounds.append(len(fbar))
        slots, lengths = engine._gather_slots(
            np.array(fbar, dtype=np.int64), np.array(bounds, dtype=np.int64)
        )
        assert lengths.tolist() == want_lengths
        assert np.array_equal(slots, np.concatenate(want_slots))

    def test_engine_restartable(self, small_graph):
        engine = build_engine(small_graph, GridShape(2, 2))
        first = run_bfs(engine, 0)
        second = run_bfs(engine, 5)
        assert np.array_equal(second.levels, serial_bfs(small_graph, 5))
        assert first.num_levels > 0


class TestTargetSearch:
    def test_stops_at_target_level(self, small_graph):
        levels = serial_bfs(small_graph, 0)
        target = int(np.where(levels == 3)[0][0])
        engine = build_engine(small_graph, GridShape(2, 2))
        result = run_bfs(engine, 0, target=target)
        assert result.found_target
        assert result.target_level == 3
        # search stops at the end of the level that found the target
        assert result.num_levels == 3

    def test_source_equals_target(self, small_graph):
        result = run_bfs(build_engine(small_graph, GridShape(2, 2)), 4, target=4)
        assert result.target_level == 0

    def test_unreachable_target_exhausts_component(self, sparse_graph):
        levels = serial_bfs(sparse_graph, 0)
        unreachable = np.where(levels == UNREACHED)[0]
        assert unreachable.size, "fixture must have a disconnected vertex"
        result = run_bfs(
            build_engine(sparse_graph, GridShape(2, 2)), 0, target=int(unreachable[0])
        )
        assert not result.found_target
        assert np.array_equal(result.levels, levels)

    def test_max_levels_truncates(self, path_graph):
        result = run_bfs(build_engine(path_graph, GridShape(2, 2)), 0, max_levels=3)
        assert result.num_levels == 3
        assert result.levels[9] == UNREACHED

    def test_bad_target_rejected(self, small_graph):
        engine = build_engine(small_graph, GridShape(2, 2))
        with pytest.raises(SearchError):
            run_bfs(engine, 0, target=small_graph.n)


class TestResultMetadata:
    def test_summary_strings(self, small_graph):
        result = run_bfs(build_engine(small_graph, GridShape(2, 2)), 0, target=1)
        assert "BFS from 0" in result.summary()
        assert result.num_reached > 0

    def test_times_positive_and_consistent(self, small_graph):
        result = run_bfs(build_engine(small_graph, GridShape(2, 4)), 0)
        assert result.elapsed > 0
        assert result.comm_time > 0
        assert result.compute_time > 0
        # makespan >= each component's max (they are per-rank maxima)
        assert result.elapsed <= result.comm_time + result.compute_time + 1e-12

    def test_per_level_stats_recorded(self, small_graph):
        result = run_bfs(build_engine(small_graph, GridShape(2, 4)), 0)
        assert len(result.stats.levels) == result.num_levels
        assert result.stats.volume_per_level().sum() > 0

    def test_frontier_sizes_sum_to_reached(self, small_graph):
        result = run_bfs(build_engine(small_graph, GridShape(2, 4)), 0)
        total = sum(s.frontier_size for s in result.stats.levels)
        assert total == result.num_reached - 1  # all but the source
