"""The paper's equivalence claim: "The conventional 1D partitioning is
equivalent to the 2D partitioning with R = 1 or C = 1" (Section 2.2).

Algorithm 1 on a OneDPartition and Algorithm 2 on the degenerate 1 x P
mesh must not only produce the same levels — they must move the *same
data*: identical fold volumes per level, because the stored structures
coincide (full edge lists per owner) and the fold buckets by the same
ownership map.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_engine
from repro.bfs.level_sync import run_bfs
from repro.bfs.options import BfsOptions
from repro.graph.generators import poisson_random_graph
from repro.types import GraphSpec, GridShape


@pytest.fixture(scope="module")
def graph():
    return poisson_random_graph(GraphSpec(n=800, k=7, seed=13))


@pytest.mark.parametrize("fold", ["direct", "union-ring"])
def test_fold_volumes_identical(graph, fold):
    opts = BfsOptions(fold_collective=fold)
    one_d = run_bfs(build_engine(graph, GridShape(1, 6), system="bluegene-1d", opts=opts), 0)
    two_d = run_bfs(build_engine(graph, GridShape(1, 6), system="bluegene-2d", opts=opts), 0)
    assert np.array_equal(one_d.levels, two_d.levels)
    assert np.array_equal(
        one_d.stats.volume_per_level("fold"), two_d.stats.volume_per_level("fold")
    )
    # The degenerate 2D mesh has single-member columns: zero expand traffic,
    # exactly like Algorithm 1 which has no expand at all.
    assert two_d.stats.volume_per_level("expand").sum() == 0
    assert one_d.stats.volume_per_level("expand").sum() == 0


def test_per_rank_storage_identical(graph):
    from repro.partition.one_d import OneDPartition
    from repro.partition.two_d import TwoDPartition

    p = 6
    one_d = OneDPartition(graph, p, as_row=False)
    two_d = TwoDPartition(graph, GridShape(1, p))
    for rank in range(p):
        a = one_d.local(rank)
        b = two_d.local(rank)
        # same owned range
        assert (a.vertex_lo, a.vertex_hi) == (b.vertex_lo, b.vertex_hi)
        # same stored adjacency multiset (rows of owners == columns of owners
        # by symmetry)
        assert a.num_local_edges == b.num_stored_entries
        assert np.array_equal(np.sort(a.adjacency), np.sort(b.rows))


def test_simulated_times_close(graph):
    """Same traffic + same machine model => near-identical simulated time.
    (Small differences come from the degenerate expand's empty rounds.)"""
    opts = BfsOptions(fold_collective="direct")
    one_d = run_bfs(build_engine(graph, GridShape(1, 6), system="bluegene-1d", opts=opts), 0)
    two_d = run_bfs(build_engine(graph, GridShape(1, 6), system="bluegene-2d", opts=opts), 0)
    assert two_d.elapsed == pytest.approx(one_d.elapsed, rel=0.15)
