"""The paper's equivalence claim: "The conventional 1D partitioning is
equivalent to the 2D partitioning with R = 1 or C = 1" (Section 2.2).

The ``"1d"`` layout *is* Algorithm 2 on the ``1 x P`` mesh, whichever 1-D
grid it is asked for; only the task placement follows the request.  So a
``"1d"`` run must produce the levels, the per-level counters and the
bytes of a ``"2d"`` run on ``1 x P`` — and its clocks too wherever the two
placements agree.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import build_communicator, build_engine
from repro.bfs.level_sync import run_bfs
from repro.bfs.options import BfsOptions
from repro.errors import ConfigurationError
from repro.graph.generators import poisson_random_graph
from repro.machine.bluegene import bluegene_l_torus_for
from repro.machine.mapping import TaskMapping
from repro.observability import result_digests
from repro.partition.two_d import TwoDPartition
from repro.types import GraphSpec, GridShape, SystemSpec
from tests.test_pooled_partition import column_chunk, stored_columns, stored_rows

P = 8
REQUESTS = (GridShape(1, P), GridShape(P, 1))


@pytest.fixture(scope="module")
def graph():
    return poisson_random_graph(GraphSpec(n=800, k=7, seed=13))


def counters(result) -> list:
    """Every per-level counter, clock columns left out."""
    return [
        replace(s, comm_seconds=0.0, compute_seconds=0.0, fault_seconds=0.0)
        for s in result.stats.levels
    ]


def run_pair(graph, grid, machine, opts):
    """``"1d"`` on ``grid`` and ``"2d"`` on ``1 x P``: (engine, result) each."""
    one = build_engine(graph, grid, system=f"{machine}-1d", opts=opts)
    two = build_engine(graph, GridShape(1, P), system=f"{machine}-2d", opts=opts)
    return (one, run_bfs(one, 0)), (two, run_bfs(two, 0))


@pytest.mark.parametrize("fold", ["direct", "union-ring"])
def test_fold_volumes_identical(graph, fold):
    for direction in ("top-down", "hybrid"):
        opts = BfsOptions(fold_collective=fold, direction=direction)
        for grid in REQUESTS:
            (one_engine, one), (_, two) = run_pair(graph, grid, "bluegene", opts)
            assert one_engine.partition.grid == one_engine.comm.grid == GridShape(1, P)
            assert np.array_equal(one.levels, two.levels)
            assert counters(one) == counters(two)
            assert one.stats.total_bytes == two.stats.total_bytes
            # a processor-column of one rank: no expand traffic at all
            assert one.stats.volume_per_level("expand").sum() == 0


def test_per_rank_storage_identical(graph):
    """At R = 1 a rank's column chunk is its own block: it stores the full
    edge list of each vertex it owns — Algorithm 1's rank-local CSR."""
    part = TwoDPartition(graph, GridShape(1, 6))
    for rank in range(6):
        lo, hi = int(part.owned_lo[rank]), int(part.owned_hi[rank])
        assert column_chunk(part, rank) == (lo, hi)
        own = graph.indices[graph.indptr[lo] : graph.indptr[hi]]
        rows = stored_rows(part, rank)
        assert rows.size == own.size
        assert np.array_equal(np.sort(rows), np.sort(own))
        has_edges = np.flatnonzero(np.diff(graph.indptr[lo : hi + 1])) + lo
        assert np.array_equal(stored_columns(part, rank), has_edges)


def test_simulated_times_close(graph):
    """"1d" keeps the requested grid's placement.  Where that is the
    ``1 x P`` placement, clocks and every digest are bit-equal; a placement
    of the ``P x 1`` grid's own moves the clocks and nothing else."""
    opts = BfsOptions(fold_collective="direct", direction="hybrid")
    for machine in ("bluegene", "mcr"):
        for grid in REQUESTS:
            (one_engine, one), (two_engine, two) = run_pair(graph, grid, machine, opts)
            placed = build_communicator(grid, system=f"{machine}-2d").mapping.rank_to_node
            assert np.array_equal(one_engine.comm.mapping.rank_to_node, placed)
            if np.array_equal(placed, two_engine.comm.mapping.rank_to_node):
                assert one.elapsed == two.elapsed
                assert result_digests(one) == result_digests(two)
    _, (_, two) = run_pair(graph, GridShape(1, P), "bluegene", opts)
    shuffled = np.random.default_rng(3).permutation(P)
    own = TaskMapping(GridShape(P, 1), bluegene_l_torus_for(P), shuffled)
    engine = build_engine(
        graph, GridShape(P, 1), system=SystemSpec(layout="1d", mapping=own), opts=opts
    )
    assert engine.comm.grid == GridShape(1, P)
    assert np.array_equal(engine.comm.mapping.rank_to_node, shuffled)
    moved = run_bfs(engine, 0)
    assert counters(moved) == counters(two)
    assert moved.elapsed != two.elapsed


def test_transposed_comm_rejected(graph):
    """A prebuilt ``P x 1`` communicator never silently runs the transpose."""
    comm = build_communicator(GridShape(P, 1), system="bluegene-2d")
    with pytest.raises(ConfigurationError):
        build_engine(graph, GridShape(P, 1), system="bluegene-1d", comm=comm)
