"""Property tests on the cost/volume accounting itself.

These pin down *model* invariants (not just algorithm semantics):
contention never speeds anything up and discovery charges what a per-rank
oracle owes.  (The collectives' own accounting invariants — unions never
increase wire volume, delivered counts equal what was addressed, the
clock decomposes exactly — live beside the collectives' property test in
``test_collectives.py``.)
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import poisson_random_graph
from repro.machine.bluegene import BLUEGENE_L
from repro.machine.mapping import row_major_mapping
from repro.machine.torus import Torus3D
from repro.runtime.comm import Communicator
from repro.types import GraphSpec, GridShape, SystemSpec, VERTEX_DTYPE

SLOW = settings(max_examples=25, deadline=None)


@given(seed=st.integers(0, 10**6), scale=st.integers(1, 5))
@SLOW
def test_contention_is_monotone_in_load(seed, scale):
    """Adding more traffic over the same link never reduces anyone's time."""
    from repro.runtime.network import Network

    grid = GridShape(1, 4)
    net = Network(row_major_mapping(grid, Torus3D(4, 1, 1)), BLUEGENE_L)
    rng = np.random.default_rng(seed)
    nbytes = rng.integers(1, 10_000, size=1 + scale) * BLUEGENE_L.bytes_per_vertex
    src = np.zeros(1 + scale, dtype=np.int64)
    base_send, _, _ = net.round_times_arrays(src[:1], src[:1] + 1, nbytes[:1])
    extra_send, _, _ = net.round_times_arrays(src, src + 1, nbytes)
    assert extra_send[0] >= base_send[0]


def _discover_charges(graph, grid, layout, source, use_sent_cache):
    """Run one BFS; per level, what discovery charged vs. what a per-rank
    oracle says it owes.

    Returns ``(charged, owed)`` pairs of per-rank arrays — ``edges_scanned``
    and ``hash_lookups`` of the charge just before the pool kernel, then
    ``hash_lookups`` of the charge just after it (absent without the
    sent cache).
    """
    from unittest import mock

    from repro.api import build_engine
    from repro.bfs.options import BfsOptions
    from repro.bfs.sent_cache import PooledSentCache

    engine = build_engine(
        graph, grid, system=SystemSpec(layout=layout),
        opts=BfsOptions(use_sent_cache=use_sent_cache),
    )
    nranks = engine.comm.nranks
    events: list[tuple] = []
    real_charge = Communicator.charge_compute_many
    real_discover = PooledSentCache.discover
    real_gather = type(engine)._gather_slots

    def charge(self, **work):
        events.append(("charge", work))
        return real_charge(self, **work)

    def discover(self, slots, *args, **kwargs):
        events.append(("discover", None))
        return real_discover(self, slots, *args, **kwargs)

    def gather(self, fbar_flat, fbar_bounds):
        events.append(("fbar", (fbar_flat, fbar_bounds)))
        return real_gather(self, fbar_flat, fbar_bounds)

    pairs = []
    with mock.patch.object(Communicator, "charge_compute_many", charge), \
            mock.patch.object(PooledSentCache, "discover", discover), \
            mock.patch.object(type(engine), "_gather_slots", gather):
        engine.start(source)
        while True:
            bounds = engine._frontier_bounds
            frontier = [
                engine._frontier_flat[bounds[r]: bounds[r + 1]] for r in range(nranks)
            ]
            del events[:]
            fresh = engine.step()
            at = [e[0] for e in events].index("discover")
            if layout == "1d":
                raw = [
                    np.concatenate(
                        [graph.indices[graph.indptr[v]: graph.indptr[v + 1]] for v in f]
                        + [np.empty(0, dtype=VERTEX_DTYPE)]
                    )
                    for f in frontier
                ]
                looked_up = np.zeros(nranks, dtype=np.int64)
            else:
                fbar_flat, fbar_bounds = events[at - 2][1]
                fbar = [
                    fbar_flat[fbar_bounds[r]: fbar_bounds[r + 1]] for r in range(nranks)
                ]
                # rank (i, j) stores the entries of fbar[r]'s edge lists
                # whose row falls in a block row s * R + i
                R, C = engine.grid.rows, engine.grid.cols
                row_block = engine.partition.dist.part_of(np.arange(graph.n))
                raw = []
                for r in range(nranks):
                    lists = np.concatenate(
                        [graph.indices[graph.indptr[v]: graph.indptr[v + 1]] for v in fbar[r]]
                        + [np.empty(0, dtype=VERTEX_DTYPE)]
                    )
                    raw.append(lists[row_block[lists] % R == r // C])
                looked_up = np.diff(fbar_bounds)
            raw_sizes = np.array([x.size for x in raw], dtype=np.int64)
            before = events[at - 1][1]
            pairs.append((before["edges_scanned"], raw_sizes))
            pairs.append((before["hash_lookups"], raw_sizes + looked_up))
            after = events[at + 1][1]
            if use_sent_cache:
                uniq = np.array([np.unique(x).size for x in raw], dtype=np.int64)
                assert set(after) == {"hash_lookups"}
                pairs.append((after["hash_lookups"], uniq))
            else:
                # the next charge belongs to the fold, not to discovery
                assert "edges_scanned" not in after
            if fresh == 0:
                return pairs


@given(
    seed=st.integers(0, 10**6),
    layout=st.sampled_from(["1d", "2d"]),
    use_sent_cache=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_discover_charges_raw_plus_prefilter_unique(seed, layout, use_sent_cache):
    """Discovery charges each rank one lookup per edge scanned (plus one per
    F-bar vertex in 2D) and, with the sent cache, one per *pre-filter*
    unique neighbour — the slot-space kernel changed how the sets are
    built, not what they cost."""
    graph = poisson_random_graph(GraphSpec(n=150, k=5, seed=seed))
    grid = GridShape(1, 6) if layout == "1d" else GridShape(2, 3)
    pairs = _discover_charges(graph, grid, layout, seed % graph.n, use_sent_cache)
    assert pairs
    for charged, owed in pairs:
        assert np.array_equal(charged, owed)
