"""Flagship property-based tests: distributed == serial, everywhere.

These hypothesis suites hammer the whole stack with random graphs, random
meshes, random sources, and random algorithm configurations, asserting the
one invariant that matters: every distributed variant computes exactly the
serial BFS level array.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import build_communicator, build_engine
from repro.bfs.bidirectional import run_bidirectional_bfs
from repro.bfs.level_sync import run_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.graph.csr import CsrGraph
from repro.graph.generators import gnm_edges, poisson_random_graph
from repro.types import GraphSpec, GridShape
from repro.utils.rng import RngFactory

SLOW = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def random_graph(seed: int, n: int, m: int) -> CsrGraph:
    rng = RngFactory(seed).named("prop-graph")
    m = min(m, n * (n - 1) // 2)
    return CsrGraph.from_edges(n, gnm_edges(n, m, rng))


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 120),
    density=st.floats(0.0, 3.0),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    expand=st.sampled_from(["direct", "ring", "two-phase", "recursive-doubling"]),
    fold=st.sampled_from(["direct", "ring", "union-ring", "two-phase", "bruck"]),
    cache=st.booleans(),
)
@SLOW
def test_2d_bfs_equals_serial(seed, n, density, rows, cols, expand, fold, cache):
    graph = random_graph(seed, n, int(n * density))
    source = seed % n
    opts = BfsOptions(
        expand_collective=expand, fold_collective=fold, use_sent_cache=cache
    )
    engine = build_engine(graph, GridShape(rows, cols), opts=opts)
    result = run_bfs(engine, source)
    assert np.array_equal(result.levels, serial_bfs(graph, source))


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 120),
    density=st.floats(0.0, 3.0),
    p=st.integers(1, 8),
    fold=st.sampled_from(["direct", "ring", "union-ring", "two-phase", "bruck"]),
    as_row=st.booleans(),
)
@SLOW
def test_1d_bfs_equals_serial(seed, n, density, p, fold, as_row):
    graph = random_graph(seed, n, int(n * density))
    source = (seed * 7) % n
    grid = GridShape(p, 1) if as_row else GridShape(1, p)
    opts = BfsOptions(fold_collective=fold)
    engine = build_engine(graph, grid, system="bluegene-1d", opts=opts)
    result = run_bfs(engine, source)
    assert np.array_equal(result.levels, serial_bfs(graph, source))


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 100),
    density=st.floats(0.0, 2.5),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
)
@SLOW
def test_bidirectional_distance_equals_serial(seed, n, density, rows, cols):
    graph = random_graph(seed, n, int(n * density))
    rng = np.random.default_rng(seed)
    s, t = (int(x) for x in rng.integers(0, n, 2))
    grid = GridShape(rows, cols)
    comm = build_communicator(grid)
    forward = build_engine(graph, grid, comm=comm)
    backward = build_engine(graph, grid, comm=comm)
    result = run_bidirectional_bfs(forward, backward, s, t)
    expected = int(serial_bfs(graph, s)[t])
    assert result.path_length == (None if expected < 0 else expected)


@given(seed=st.integers(0, 10**6), capacity=st.integers(1, 64))
@SLOW
def test_buffer_capacity_never_changes_levels(seed, capacity):
    """Section 3.1 fixed-length buffers are a pure performance knob."""
    graph = poisson_random_graph(GraphSpec(n=150, k=5, seed=seed % 11))
    source = seed % graph.n
    capped = run_bfs(
        build_engine(graph, (2, 3), opts=BfsOptions(buffer_capacity=capacity)), source
    )
    uncapped = run_bfs(build_engine(graph, (2, 3)), source)
    assert np.array_equal(capped.levels, uncapped.levels)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_machine_model_never_changes_levels(seed):
    """Time models (BG/L vs MCR, planar vs row-major) affect clocks only."""
    graph = poisson_random_graph(GraphSpec(n=200, k=6, seed=seed % 13))
    source = seed % graph.n
    results = [
        run_bfs(build_engine(graph, (2, 4), system=system), source)
        for system in ("bluegene-2d", "bluegene-row-major", "mcr-2d")
    ]
    for other in results[1:]:
        assert np.array_equal(results[0].levels, other.levels)


@given(
    seed=st.integers(0, 10**6),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
)
@SLOW
def test_message_statistics_are_deterministic(seed, rows, cols):
    graph = poisson_random_graph(GraphSpec(n=180, k=5, seed=seed % 17))
    source = seed % graph.n

    def run():
        return run_bfs(build_engine(graph, GridShape(rows, cols)), source)

    a, b = run(), run()
    assert a.elapsed == b.elapsed
    assert a.stats.total_messages == b.stats.total_messages
    assert np.array_equal(a.stats.volume_per_level(), b.stats.volume_per_level())


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_levels_are_valid_bfs_labelling(seed):
    """Structural invariant, independent of the oracle: labelled vertices
    have a neighbour one level closer, and no edge spans more than one level."""
    graph = poisson_random_graph(GraphSpec(n=150, k=4, seed=seed % 19))
    source = seed % graph.n
    levels = run_bfs(build_engine(graph, (2, 2)), source).levels
    assert levels[source] == 0
    for v in range(graph.n):
        lv = levels[v]
        if lv <= 0:
            continue
        neigh = graph.neighbors(v)
        assert neigh.size and (levels[neigh] != -1).any()
        closer = levels[neigh][levels[neigh] >= 0]
        assert closer.min() == lv - 1
    for u, v in graph.edge_array():
        lu, lv = levels[int(u)], levels[int(v)]
        if lu >= 0 and lv >= 0:
            assert abs(lu - lv) <= 1
        else:
            assert lu == lv == -1  # components never straddle the frontier
