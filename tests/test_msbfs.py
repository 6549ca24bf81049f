"""MS-BFS correctness: batched traversals vs. sequential per-source runs.

The contract under test is byte-identity: row ``i`` of a batched
traversal's level matrix must equal — exactly, element for element — the
level array of a dedicated sequential run from ``sources[i]``, across
layouts, wire codecs, seeds, and target-terminated queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import MAX_BATCH, run_bfs, run_ms_bfs
from repro.bfs.options import BfsOptions
from repro.errors import ConfigurationError, FaultError, SearchError
from repro.faults import FaultSpec
from repro.graph.csr import CsrGraph
from repro.graph.generators import build_graph, poisson_random_graph
from repro.observability.digest import levels_digest
from repro.session import BfsSession
from repro.types import GraphSpec, GridShape, SystemSpec

LAYOUTS = [("2d", GridShape(4, 4)), ("1d", GridShape(1, 8))]


def make_session(graph, layout, grid, **kwargs) -> BfsSession:
    return BfsSession(graph, grid, system=SystemSpec(layout=layout, **kwargs))


@pytest.mark.parametrize("layout,grid", LAYOUTS)
class TestByteIdentity:
    def test_full_traversals_match_sequential(self, small_graph, layout, grid):
        session = make_session(small_graph, layout, grid)
        sources = [0, 1, 5, 17, 113, 399, 200, 3]
        batched = session.bfs_many(sources)
        for i, s in enumerate(sources):
            sequential = session.bfs(s)
            assert np.array_equal(batched.levels[i], sequential.levels)
            assert batched.levels[i].tobytes() == sequential.levels.tobytes()
            assert int(batched.num_levels[i]) == sequential.num_levels

    def test_targeted_queries_match_sequential(self, small_graph, layout, grid):
        session = make_session(small_graph, layout, grid)
        sources = [0, 1, 5, 17, 113, 399]
        targets = [10, None, 5, 42, None, 250]
        batched = session.bfs_many(sources, targets=targets)
        for i, (s, t) in enumerate(zip(sources, targets)):
            sequential = session.bfs(s, target=t)
            assert np.array_equal(batched.levels[i], sequential.levels)
            assert batched.target_levels[i] == sequential.target_level
            assert int(batched.num_levels[i]) == sequential.num_levels

    def test_disconnected_and_self_targets(self, sparse_graph, layout, grid):
        session = make_session(sparse_graph, layout, grid)
        reach = session.bfs(0).levels
        unreachable = int(np.flatnonzero(reach == -1)[0])
        sources = [0, 0, 7, 299]
        targets = [unreachable, 0, None, 7]
        batched = session.bfs_many(sources, targets=targets)
        for i, (s, t) in enumerate(zip(sources, targets)):
            sequential = session.bfs(s, target=t)
            assert np.array_equal(batched.levels[i], sequential.levels)
            assert batched.target_levels[i] == sequential.target_level
            assert int(batched.num_levels[i]) == sequential.num_levels

    @pytest.mark.parametrize("wire", ["delta-varint", "bitmap", "adaptive"])
    def test_codecs_preserve_levels(self, small_graph, layout, grid, wire):
        session = make_session(small_graph, layout, grid, wire=wire)
        sources = [3, 50, 399]
        batched = session.bfs_many(sources)
        for i, s in enumerate(sources):
            assert np.array_equal(batched.levels[i], session.bfs(s).levels)

    @pytest.mark.parametrize("seed", [1, 23])
    def test_random_graphs_and_batches(self, layout, grid, seed):
        graph = poisson_random_graph(GraphSpec(n=256, k=6, seed=seed))
        rng = np.random.default_rng(seed)
        sources = [int(s) for s in rng.integers(0, graph.n, size=12)]
        session = make_session(graph, layout, grid)
        batched = session.bfs_many(sources)
        for i, s in enumerate(sources):
            assert np.array_equal(batched.levels[i], session.bfs(s).levels)

    def test_duplicate_sources_share_levels(self, small_graph, layout, grid):
        session = make_session(small_graph, layout, grid)
        batched = session.bfs_many([5, 5, 5])
        sequential = session.bfs(5)
        for i in range(3):
            assert np.array_equal(batched.levels[i], sequential.levels)

    def test_max_levels_truncates_identically(self, small_graph, layout, grid):
        session = make_session(small_graph, layout, grid)
        batched = run_ms_bfs(
            session._new_engine(session._new_comm()), [0, 7], max_levels=2
        )
        for i, s in enumerate([0, 7]):
            sequential = run_bfs(
                session._new_engine(session._new_comm()), s, max_levels=2
            )
            assert np.array_equal(batched.levels[i], sequential.levels)
            assert int(batched.num_levels[i]) == sequential.num_levels

    def test_no_expand_filter_path(self, small_graph, layout, grid):
        from repro.bfs.options import BfsOptions

        session = BfsSession(
            small_graph, grid,
            system=SystemSpec(layout=layout),
            opts=BfsOptions(use_expand_filter=False),
        )
        batched = session.bfs_many([0, 7, 200])
        for i, s in enumerate([0, 7, 200]):
            assert np.array_equal(batched.levels[i], session.bfs(s).levels)


class TestBatchSemantics:
    def test_full_width_batch(self, small_graph):
        session = BfsSession(small_graph, (4, 4))
        sources = list(range(MAX_BATCH))
        batched = session.bfs_many(sources)
        assert batched.batch_size == MAX_BATCH
        for i in (0, 31, 63):
            assert np.array_equal(batched.levels[i], session.bfs(sources[i]).levels)

    def test_counters_count_queries_not_batches(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        session.bfs_many([0, 1, 2])
        assert session.queries_served == 3
        assert session.total_simulated_time > 0

    def test_query_view_digests(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        batched = session.bfs_many([0, 7])
        view = batched.query_view(0)
        assert view.batch_size == 2
        assert view.levels_digest == levels_digest(session.bfs(0).levels)
        assert view.to_dict()["source"] == 0
        assert batched.query_view(1, digest=False).levels_digest is None

    def test_summary_mentions_batch(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        batched = session.bfs_many([0, 7])
        assert "2 sources" in batched.summary()

    def test_levels_of_is_row_view(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        batched = session.bfs_many([0, 7])
        assert np.array_equal(batched.levels_of(1), batched.levels[1])


class TestRowLayout:
    """Rows come back C-ordered: a digest or reply reads each row in place
    (an F-ordered matrix made every row view a strided copy)."""

    @pytest.mark.parametrize("relabel", [None, "degree"])
    def test_rows_are_c_contiguous(self, small_graph, relabel):
        session = BfsSession(small_graph, (2, 2), relabel=relabel)
        batched = session.bfs_many(list(range(0, 128, 2)))
        assert batched.levels.flags.c_contiguous
        assert batched.levels.shape == (MAX_BATCH, small_graph.n)
        for i in (0, 37, MAX_BATCH - 1):
            row = batched.levels_of(i)
            assert row.flags.c_contiguous
            assert row.base is not None
            assert np.shares_memory(row, batched.levels)


def long_path(n: int = 700, isolated: int = 10, seed: int = 7):
    """A path over ``n - isolated`` shuffled vertices (so consecutive
    steps cross ranks) plus ``isolated`` vertices off it; returns the
    graph and the path's vertex order."""
    order = np.random.default_rng(seed).permutation(n)[: n - isolated]
    graph = CsrGraph.from_edges(n, np.column_stack((order[:-1], order[1:])))
    return graph, [int(v) for v in order]


@pytest.mark.parametrize(
    "layout,grid", [("1d", GridShape(1, 4)), ("2d", GridShape(2, 2))], ids=["1d", "2d"]
)
class TestLongDiameter:
    """Levels past 15 and 255: the batch grows level planes and widens the
    row accumulator, and every row still equals a sequential run."""

    def test_rows_match_sequential(self, layout, grid):
        graph, order = long_path()
        isolated = sorted(set(range(graph.n)) - set(order))[0]
        mid = len(order) // 2
        sources = [order[0], order[-1], order[mid], order[0], isolated]
        targets = [None, None, None, order[400], None]
        session = make_session(graph, layout, grid)
        batched = session.bfs_many(sources, targets=targets)
        assert batched.batch_levels > 256
        for i, (s, t) in enumerate(zip(sources, targets)):
            sequential = session.bfs(s, target=t)
            assert batched.levels[i].tobytes() == sequential.levels.tobytes()
            assert int(batched.num_levels[i]) == sequential.num_levels
            assert batched.target_levels[i] == sequential.target_level
        assert batched.target_levels[3] == 400

    def test_max_levels_cut(self, layout, grid):
        graph, order = long_path()
        session = make_session(graph, layout, grid)
        sources = [order[0], order[-1], order[0], order[len(order) // 2]]
        targets = [order[280], None, None, order[-1]]
        batched = run_ms_bfs(
            session._new_engine(session._new_comm()), sources, targets, max_levels=300
        )
        assert batched.batch_levels == 300
        for i, (s, t) in enumerate(zip(sources, targets)):
            sequential = run_bfs(
                session._new_engine(session._new_comm()), s, target=t, max_levels=300
            )
            assert batched.levels[i].tobytes() == sequential.levels.tobytes()
            assert int(batched.num_levels[i]) == sequential.num_levels
            assert batched.target_levels[i] == sequential.target_level


class TestValidation:
    def test_over_width_batch_rejected(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        with pytest.raises(ConfigurationError):
            session.bfs_many(list(range(MAX_BATCH + 1)))

    def test_empty_batch_rejected(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        with pytest.raises(SearchError):
            session.bfs_many([])

    def test_out_of_range_source_rejected(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        with pytest.raises(SearchError):
            session.bfs_many([small_graph.n])

    def test_out_of_range_target_rejected(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        with pytest.raises(SearchError):
            session.bfs_many([0], targets=[small_graph.n])

    def test_target_length_mismatch_rejected(self, small_graph):
        session = BfsSession(small_graph, (2, 2))
        with pytest.raises(SearchError):
            session.bfs_many([0, 1], targets=[None])

    def test_unchecked_faulted_batch_raises_structured(self, small_graph):
        # checkpointing disabled by hand: an unrecovered loss cannot be
        # replayed, so the batch must die loudly with a report attached
        from repro.bfs.options import BfsOptions

        session = BfsSession(
            small_graph, (2, 2),
            opts=BfsOptions(checkpoint=False),
            system=SystemSpec(
                layout="2d",
                faults=FaultSpec(seed=0, drop_rate=0.9, max_retries=0),
            ),
        )
        with pytest.raises(FaultError) as excinfo:
            session.bfs_many([0, 1])
        assert excinfo.value.report is not None

    def test_observed_batches_run(self, small_graph):
        session = BfsSession(
            small_graph, (2, 2), system=SystemSpec(layout="2d", observe="spans")
        )
        batched = session.bfs_many([0, 7])
        assert np.array_equal(batched.levels[0], session.bfs(0).levels)


#: the batch's own level settings for a single source: direct fold, no
#: sent cache (and no sieve, top-down) — under them a width-1 batch and a
#: single-source run are one level body, up to the batch's mask words
BATCH_LEVEL = BfsOptions(fold_collective="direct", use_sent_cache=False)
POISSON = GraphSpec(n=600, k=6.0, seed=3)
RMAT = GraphSpec.rmat(9, edge_factor=8, seed=5)


def per_level(stats, field: str) -> list[int]:
    return [getattr(level, field) for level in stats.levels]


class TestOneLevelBody:
    def test_batch_counts_its_deliveries(self):
        stats = BfsSession(build_graph(POISSON), (4, 4)).bfs_many([0, 37]).stats
        for phase in ("expand", "fold"):
            received = stats.volume_per_level(phase)
            assert (received[:-1] > 0).all()
            assert stats.recv_by_rank[phase].sum() == received.sum()

    @pytest.mark.parametrize(
        "spec,layout,grid",
        [(POISSON, "1d", (1, 8)), (POISSON, "2d", (4, 4)), (RMAT, "2d", (2, 8))],
        ids=["poisson-1d-1x8", "poisson-2d-4x4", "rmat-2d-2x8"],
    )
    def test_width_one_batch_is_the_single_source_level(self, spec, layout, grid):
        session = BfsSession(
            build_graph(spec), grid, system=SystemSpec(layout=layout), opts=BATCH_LEVEL
        )
        single, batch = session.bfs(0), session.bfs_many([0])
        assert single.num_levels > 2
        assert batch.levels[0].tobytes() == single.levels.tobytes()
        for field in ("messages", "edges_scanned", "expand_received", "fold_received"):
            assert per_level(batch.stats, field) == per_level(single.stats, field), field
        assert batch.stats.raw_bytes_by_phase == single.stats.raw_bytes_by_phase
        # the mask words: 8 B beside every vertex entry on the wire
        extra = batch.stats.total_bytes - single.stats.total_bytes
        assert extra == 8 * single.stats.total_processed

    @pytest.mark.parametrize("expand", ["ring", "two-phase", "recursive-doubling"])
    @pytest.mark.parametrize("grid", [(4, 4), (2, 8)], ids=["4x4", "2x8"])
    def test_batches_forward_through_the_expand_collective(self, small_graph, expand, grid):
        opts = BfsOptions(
            expand_collective=expand, fold_collective="direct", use_sent_cache=False
        )
        session = BfsSession(small_graph, grid, opts=opts)
        sources = [0, 1, 5, 17, 113, 399]
        batched = session.bfs_many(sources)
        for i, s in enumerate(sources):
            assert batched.levels[i].tobytes() == session.bfs(s).levels.tobytes()
        # the width-1 batch forwards exactly what the single source does
        single, batch = session.bfs(5), session.bfs_many([5])
        assert per_level(batch.stats, "expand_received") == per_level(
            single.stats, "expand_received"
        )
        assert batch.stats.raw_bytes_by_phase == single.stats.raw_bytes_by_phase
